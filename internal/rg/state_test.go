package rg

import (
	"math/rand"
	"testing"
)

// TestEnvHashAgreesWithEnvCmp checks the contract the disjunct index relies
// on: environments equal under envCmp hash equally, including the fields
// envCmp ignores, and the index's notion of a duplicate is exactly envCmp's.
func TestEnvHashAgreesWithEnvCmp(t *testing.T) {
	const nVars, nShared = 4, 3
	base := func() *env {
		e := newEnv(nVars, nShared)
		for v := range e.vals {
			e.vals[v] = iv{Lo: int64(v), Hi: int64(v + 2)}
		}
		e.writeOwn(0, iv{Lo: 0, Hi: 2})
		return e
	}

	t.Run("own ignored while unset", func(t *testing.T) {
		a, b := base(), base()
		a.own[1] = iv{Lo: -5, Hi: 5}
		b.own[1] = iv{Lo: 7, Hi: 9}
		if envCmp(a, b) != 0 {
			t.Fatal("envCmp distinguishes own[1] although ownSet[1] is false")
		}
		if envHash(a) != envHash(b) {
			t.Fatal("equal environments (differing only in unset own) hash differently")
		}
		var s envSet
		s.add(a)
		if s.addCopy(b) != nil {
			t.Fatal("envSet kept a duplicate that differs only in unset own")
		}
	})

	t.Run("fenced distinguishes", func(t *testing.T) {
		a, b := base(), base()
		b.fence()
		if envCmp(a, b) == 0 {
			t.Fatal("envCmp ignores fenced")
		}
		var s envSet
		s.add(a)
		if s.addCopy(b) == nil {
			t.Fatal("envSet dropped an environment that differs only in fenced")
		}
	})

	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		// A tiny value domain makes equal and colliding pairs common.
		randIv := func() iv {
			lo := int64(rng.Intn(3))
			return iv{Lo: lo, Hi: lo + int64(rng.Intn(2))}
		}
		var envs []*env
		for i := 0; i < 1000; i++ {
			e := newEnv(3, 2)
			for v := range e.vals {
				e.vals[v] = iv{Lo: 0, Hi: int64(rng.Intn(2))}
			}
			for v := range e.own {
				e.own[v] = randIv() // garbage unless ownSet
				e.ownSet[v] = rng.Intn(3) == 0
				e.fenced[v] = rng.Intn(3) == 0
			}
			envs = append(envs, e)
		}
		var s envSet
		var kept []*env
		for _, e := range envs {
			dup := false
			for _, k := range kept {
				if envCmp(k, e) == 0 {
					dup = true
					if envHash(k) != envHash(e) {
						t.Fatalf("envCmp == 0 but hashes differ:\n%+v\n%+v", *k, *e)
					}
				}
			}
			if c := s.addCopy(e); (c == nil) != dup {
				t.Fatalf("envSet duplicate=%v, linear scan duplicate=%v", c == nil, dup)
			}
			if !dup {
				kept = append(kept, e)
			}
		}
		t.Logf("%d distinct of %d", len(kept), len(envs))
		if len(kept) < 100 || len(envs)-len(kept) < 100 {
			t.Fatalf("degenerate sample: %d distinct of %d", len(kept), len(envs))
		}
	})
}
