package zpre

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"zpre/internal/core"
	"zpre/internal/memmodel"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
	"zpre/internal/smtlib"
	"zpre/internal/svcomp"
)

var updateEncodingDigest = flag.Bool("update", false, "rewrite testdata/encoding_digest.golden")

const encodingDigestFile = "encoding_digest.golden"

// TestEncodingDigest pins the verification condition the encoder builds and
// everything the decide and solve stages derive from it, over the whole
// corpus × {sc, tso, pso} × bounds {1, 2} at width 8, under three
// pre-encoding configurations: neither static pruning nor the MHB closure,
// static pruning alone, and the MHB closure alone (whose rf prune consults
// the static analysis's locksets even without static pruning). Each
// instance contributes its SMT-LIB rendering, its MHB counters, its sorted
// name table, the name of every SAT variable, its classification, the
// decision orders of zpre-, zpre and zpre+static, and the verdict and work
// counters of a full Verify under each of those strategies. Performance
// work on clause intake, variable naming or classification must leave the
// digest untouched. Regenerate with -update only for an intended change of
// the encoding.
func TestEncodingDigest(t *testing.T) {
	h := sha256.New()
	instances := 0
	strategies := []core.Strategy{ZPREMinus, ZPRE, ZPREStatic}
	configs := []struct{ prune, mhb bool }{{false, false}, {true, false}, {false, true}}
	for _, b := range svcomp.All() {
		for _, m := range memmodel.All() {
			for _, k := range []int{1, 2} {
				for _, c := range configs {
					opts := Options{Model: m, Unroll: k, Width: 8, StaticPrune: c.prune, MHB: c.mhb, Seed: 7}
					fmt.Fprintf(h, "%s/%s@%v@%d@prune=%v@mhb=%v\n", b.Subcategory, b.Name, m, k, c.prune, c.mhb)
					digestInstance(t, h, b, opts)
					for _, s := range strategies {
						opts.Strategy = s
						rep, err := Verify(b.Program, opts)
						if err != nil {
							t.Fatalf("%s %v k=%d %+v %v: %v", b.Name, m, k, c, s, err)
						}
						st := rep.SolverStats
						fmt.Fprintf(h, "report %v %v %d %d %d\n", s, rep.Status, st.Decisions, st.Conflicts, st.Propagations)
					}
					instances++
				}
			}
		}
	}
	got := fmt.Sprintf("%s %d\n", hex.EncodeToString(h.Sum(nil)), instances)
	path := filepath.Join("testdata", encodingDigestFile)
	if *updateEncodingDigest {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("encoding over the corpus drifted:\n got  %s want %s", got, want)
	}
}

// digestInstance writes one encoded instance's VC, names, classification
// and decision orders to h.
func digestInstance(t *testing.T, h io.Writer, b svcomp.Benchmark, opts Options) {
	t.Helper()
	vc, err := pipeline.Encode(b.Program, opts)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	fmt.Fprintf(h, "%s\n", smtlib.Write(vc))
	st := vc.Stats
	fmt.Fprintf(h, "mhb %d %d %d\n", st.MHBFixedRF, st.MHBFixedFR, st.MHBPruned)

	bd := vc.Builder
	named := bd.NamedVars()
	names := make([]string, 0, len(named))
	for name := range named { //mapiter:ok keys sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "named %s=%d\n", name, named[name])
	}
	for v := sat.Var(0); int(v) < bd.NumVars(); v++ {
		fmt.Fprintf(h, "var %d=%s\n", v, bd.VarName(v))
	}
	for _, vi := range core.Classify(named) {
		fmt.Fprintf(h, "info %+v\n", vi)
	}
	for _, s := range []core.Strategy{ZPREMinus, ZPRE, ZPREStatic} {
		o := opts
		o.Strategy = s
		_, dec := pipeline.Decide(vc, o)
		d, ok := dec.(*core.Decider)
		if !ok {
			t.Fatalf("%s: %v built no interference decider", b.Name, s)
		}
		fmt.Fprintf(h, "order %v %v\n", s, d.Order())
	}
}
