package rg

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zpre/internal/cprog"
	"zpre/internal/memmodel"
	"zpre/internal/svcomp"
)

var updateGolden = flag.Bool("update", false, "rewrite golden proof-outline files")

// TestGoldenOutline pins the full proof outline — rely transition pool,
// per-statement stabilized preconditions, assertion verdicts, and fixpoint
// iteration count — for two representative corpus programs. Any change to
// the domain, the transfer functions, or the fixpoint schedule shows up as
// a golden diff, which keeps refactors honest. The outline must also be
// deterministic: two independent Prove calls must render identically.
func TestGoldenOutline(t *testing.T) {
	cases := []struct {
		bench  string
		model  memmodel.Model
		domain string
	}{
		// Proved at every model: a fenced message-passing publish idiom.
		{"atomic/pair_publish_safe", memmodel.SC, ""},
		{"atomic/pair_publish_safe", memmodel.PSO, ""},
		// Model-sensitive: proved under SC, unproven under PSO, so the
		// golden files pin both verdict renderings and the stabilized
		// ranges that -rg would inject on the unproven side.
		{"divine/handshake_safe", memmodel.SC, ""},
		{"divine/handshake_safe", memmodel.PSO, ""},
		// The difference-bound domain's flagship regression: the weak-memory
		// increment race that the interval domain cannot prove because the
		// per-thread contributions only bound the sum relationally. Pinned
		// at every model so a zone-domain regression cannot hide behind a
		// model-specific transfer function.
		{"pthread/incr_race_weak_safe", memmodel.SC, DomainDBM},
		{"pthread/incr_race_weak_safe", memmodel.TSO, DomainDBM},
		{"pthread/incr_race_weak_safe", memmodel.PSO, DomainDBM},
		// The costliest fixpoints in the corpus: preconditions grow to
		// several hundred disjuncts under interference, close to the 384
		// cap, so these pin the state-set bookkeeping (dedup, sort order)
		// rather than the transfer functions.
		{"wmm/sb_mp_mix_3", memmodel.SC, DomainDBM},
		{"wmm/mp_fenced_5", memmodel.SC, DomainDBM},
	}
	for _, tc := range cases {
		name := strings.ReplaceAll(tc.bench, "/", "_") + "@" + tc.model.String()
		if tc.domain != "" {
			name += "@" + tc.domain
		}
		t.Run(name, func(t *testing.T) {
			p := findBench(t, tc.bench)
			res, err := Prove(p, Options{Model: tc.model, Domain: tc.domain})
			if err != nil {
				t.Fatalf("Prove: %v", err)
			}
			got := FormatOutline(res)
			if !res.Proved {
				got += "stabilized ranges: " + RangesSummary(res) + "\n"
			}

			res2, err := Prove(p, Options{Model: tc.model, Domain: tc.domain})
			if err != nil {
				t.Fatalf("Prove (second run): %v", err)
			}
			got2 := FormatOutline(res2)
			if !res2.Proved {
				got2 += "stabilized ranges: " + RangesSummary(res2) + "\n"
			}
			if got != got2 {
				t.Fatalf("outline is nondeterministic across runs:\n--- first\n%s\n--- second\n%s", got, got2)
			}

			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("outline differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}

func findBench(t testing.TB, name string) *cprog.Program {
	t.Helper()
	for _, b := range svcomp.All() {
		if b.Program.Name == name {
			return b.Program
		}
	}
	t.Fatalf("benchmark %q not in corpus", name)
	return nil
}
