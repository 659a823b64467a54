package encode

import (
	"strings"
	"testing"

	"zpre/internal/cprog"
	"zpre/internal/memmodel"
	"zpre/internal/svcomp"
)

// BenchmarkEncode times Program on five corpus programs, unrolled to bound
// 2 ahead of the loop, under TSO at width 8: the encode stage of the
// corpus benchmark workload, with allocations reported.
func BenchmarkEncode(b *testing.B) {
	names := []string{"lit/peterson", "lit/fig2", "pthread/incr_lock_safe", "wmm/seqlock", "ldv-races/refcount_race"}
	byName := map[string]*cprog.Program{}
	for _, bench := range svcomp.All() {
		byName[bench.Subcategory+"/"+bench.Name] = bench.Program
	}
	for _, name := range names {
		p, ok := byName[name]
		if !ok {
			b.Fatalf("no corpus program %s", name)
		}
		unrolled := cprog.Unroll(p, 2, cprog.UnwindAssume)
		b.Run(strings.ReplaceAll(name, "/", "_"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vc, err := Program(unrolled, Options{Model: memmodel.TSO, Width: 8})
				if err != nil {
					b.Fatal(err)
				}
				benchVC = vc
			}
		})
	}
}

var benchVC *VC
