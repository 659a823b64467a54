package pipeline

import (
	"slices"
	"testing"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/memmodel"
	"zpre/internal/svcomp"
)

// TestMHBFeedsOnlyZPREStatic pins which decision orders read the MHB
// closure's must-ordered pairs: Decide passes them to core.NewDecider as a
// score, and only ZPREStatic consumes a score. Under zpre- and zpre the
// order is the same with or without the feed; under zpre+static some
// corpus instance ranks its must-ordered pairs differently.
func TestMHBFeedsOnlyZPREStatic(t *testing.T) {
	order := func(p *cprog.Program, opts Options, strategy core.Strategy, withMHBFeed bool) []int32 {
		vc, err := Encode(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !withMHBFeed {
			vc.MHBOrdered = nil
		}
		opts.Strategy = strategy
		_, dec := Decide(vc, opts)
		var out []int32
		for _, v := range dec.(*core.Decider).Order() {
			out = append(out, int32(v))
		}
		return out
	}
	staticMoved := 0
	for _, b := range append(svcomp.Lit(), svcomp.BySubcategory("pthread")...) {
		for _, mm := range memmodel.All() {
			opts := Options{Model: mm, Unroll: b.MinBound, MHB: true, Seed: 1}
			for _, s := range []core.Strategy{core.ZPREMinus, core.ZPRE} {
				if with, without := order(b.Program, opts, s, true), order(b.Program, opts, s, false); !slices.Equal(with, without) {
					t.Errorf("%s@%v %v: the MHB feed changed the order\n with    %v\n without %v", b.Name, mm, s, with, without)
				}
			}
			if !slices.Equal(order(b.Program, opts, core.ZPREStatic, true), order(b.Program, opts, core.ZPREStatic, false)) {
				staticMoved++
			}
		}
	}
	if staticMoved == 0 {
		t.Error("the MHB feed never changed a zpre+static order: the test no longer exercises it")
	}
}

// TestStaticTimeReported: the static analysis runs in the encoder only when
// the encoder consumes it (prune, MHB); for a bare zpre+static run it runs
// inside Decide, and Run still reports its time in Result.VC. Runs that
// never consume it report none.
func TestStaticTimeReported(t *testing.T) {
	p := svcomp.Fig2()
	for _, tc := range []struct {
		strategy core.Strategy
		prune    bool
		want     bool
	}{
		{core.ZPRE, false, false},
		{core.ZPREStatic, false, true},
		{core.ZPRE, true, true},
	} {
		res, _, err := Run(p, Options{Model: memmodel.SC, Strategy: tc.strategy, StaticPrune: tc.prune, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.VC.StaticTime != 0; got != tc.want {
			t.Errorf("%v prune=%v: StaticTime %v, want nonzero=%v", tc.strategy, tc.prune, res.VC.StaticTime, tc.want)
		}
	}
}
