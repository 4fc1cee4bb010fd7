package workload

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// keySeeds hands every call of freshKeySeed a seed no earlier call
// used, so each test run starts on a cold cache key even under -count.
var keySeeds atomic.Uint64

func freshKeySeed() uint64 { return 0x51_0e7e_c0de + keySeeds.Add(1) }

// TestSharedCoreBuildsOnce races eight callers onto one new cache key:
// the single-flight entry must run exactly one buildCore for all of
// them, and every caller must get a generator over that core.
func TestSharedCoreBuildsOnce(t *testing.T) {
	const callers = 8
	prof := MustGet("mcf")
	seed, base := freshKeySeed(), uint64(3<<40)
	before := coreBuilds.Value()

	start := make(chan struct{})
	gens := make([]*Generator, callers)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			gens[i] = NewGeneratorShared(prof, seed, base)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := coreBuilds.Value() - before; got != 1 {
		t.Fatalf("%d concurrent callers on one key built %d cores, want 1", callers, got)
	}
	for i, g := range gens[1:] {
		if g.prog != gens[0].prog {
			t.Fatalf("caller %d got a different program than caller 0", i+1)
		}
	}
}

// TestSharedGeneratorMatchesFresh pins the shared path to the uncached
// constructor for every registered profile: the first million uops,
// the footprint and the replay metadata must be identical, both from
// the call that builds the core (cold) and from one that reuses it
// (warm).
func TestSharedGeneratorMatchesFresh(t *testing.T) {
	const uops = 1_000_000
	seed, base := freshKeySeed(), uint64(5<<40)
	for _, name := range Names() {
		prof := MustGet(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cold := NewGeneratorShared(prof, seed, base)
			warm := NewGeneratorShared(prof, seed, base)
			if warm.prog != cold.prog {
				t.Fatal("second call on the key rebuilt the core")
			}
			fresh := NewGenerator(prof, seed, base)
			for _, c := range []struct {
				kind string
				g    *Generator
			}{{"cold", cold}, {"warm", warm}} {
				if got, want := c.g.Footprint(), fresh.Footprint(); got != want {
					t.Errorf("%s: Footprint %+v, fresh %+v", c.kind, got, want)
				}
				if got, want := c.g.ReplayMeta(), fresh.ReplayMeta(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: ReplayMeta differs from fresh", c.kind)
				}
			}
			for i := 0; i < uops; i++ {
				want := fresh.Next()
				if got := cold.Next(); got != want {
					t.Fatalf("cold: uop %d is %+v, fresh %+v", i, got, want)
				}
				if got := warm.Next(); got != want {
					t.Fatalf("warm: uop %d is %+v, fresh %+v", i, got, want)
				}
			}
		})
	}
}
