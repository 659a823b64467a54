package rg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zpre/internal/memmodel"
	"zpre/internal/svcomp"
)

const corpusDigestFile = "corpus_digest.golden"

// TestCorpusDigest pins the prover's complete observable output over the
// whole corpus: every program × model × domain × prefilter setting at width
// 8 contributes its Result JSON and rendered proof outline to one SHA-256
// digest. Any drift in a verdict, an iteration count, a stabilized range or
// a single outline precondition changes the digest, so performance work on
// the fixpoint machinery must leave it untouched. Regenerate with -update
// only for an intended semantic change.
func TestCorpusDigest(t *testing.T) {
	h := sha256.New()
	calls := 0
	for _, b := range svcomp.All() {
		for _, m := range allModels {
			for _, dom := range []string{DomainInterval, DomainDBM} {
				for _, pre := range []bool{false, true} {
					res, err := Prove(b.Program, Options{Model: m, Width: 8, Domain: dom, Prefilter: pre})
					if err != nil {
						t.Fatalf("%s %v %s prefilter=%v: %v", b.Program.Name, m, dom, pre, err)
					}
					js, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s@%v@%s@%v\n%s\n%s", b.Program.Name, m, dom, pre, js, FormatOutline(res))
					calls++
				}
			}
		}
	}
	got := fmt.Sprintf("%s %d\n", hex.EncodeToString(h.Sum(nil)), calls)
	path := filepath.Join("testdata", corpusDigestFile)
	if *updateGolden {
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
		t.Errorf("prover output over the corpus drifted:\n got  %s want %s", got, want)
	}
}

// BenchmarkProve times the prover on the corpus pairs where the fixpoint is
// costliest (large disjunct sets under interference) plus the DBM domain's
// flagship proof.
func BenchmarkProve(b *testing.B) {
	cases := []struct {
		bench string
		model memmodel.Model
	}{
		{"wmm/sb_mp_mix_3", memmodel.SC},
		{"wmm/mp_fenced_5", memmodel.SC},
		{"pthread/incr_race_weak_safe", memmodel.TSO},
	}
	for _, tc := range cases {
		prog := findBench(b, tc.bench)
		b.Run(strings.ReplaceAll(tc.bench, "/", "_")+"@"+tc.model.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Prove(prog, Options{Model: tc.model, Domain: DomainDBM})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}

var benchSink *Result
