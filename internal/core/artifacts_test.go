package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/systems/yarn"
	"repro/internal/trigger"
)

// A cached pipeline run must be indistinguishable from an uncached one,
// and repeated runs must not alias mutable state through the cache.
func TestArtifactCacheRunMatchesUncached(t *testing.T) {
	opts := core.Options{Seed: 11, Scale: 1}
	plain := core.Run(&yarn.Runner{}, opts)

	cache := core.NewArtifactCache()
	first := cache.Run(&yarn.Runner{}, opts)
	second := cache.Run(&yarn.Runner{}, opts)
	if cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", cache.Len())
	}

	for _, cached := range []*core.Result{first, second} {
		if cached.Patterns != plain.Patterns || cached.Parsed != plain.Parsed ||
			cached.Unmatched != plain.Unmatched {
			t.Errorf("analysis counters differ: cached %d/%d/%d, plain %d/%d/%d",
				cached.Patterns, cached.Parsed, cached.Unmatched,
				plain.Patterns, plain.Parsed, plain.Unmatched)
		}
		if !reflect.DeepEqual(cached.Summary, plain.Summary) {
			t.Errorf("summaries differ:\n  cached: %+v\n  plain:  %+v", cached.Summary, plain.Summary)
		}
		if len(cached.Reports) != len(plain.Reports) {
			t.Fatalf("report counts differ: %d vs %d", len(cached.Reports), len(plain.Reports))
		}
		for i := range cached.Reports {
			if !reflect.DeepEqual(cached.Reports[i], plain.Reports[i]) {
				t.Errorf("report %d differs:\n  cached: %+v\n  plain:  %+v",
					i, cached.Reports[i], plain.Reports[i])
			}
		}
	}
	// The two cached runs share immutable artifacts but not mutable state.
	if first.Analysis != second.Analysis || first.Static != second.Static {
		t.Error("cached runs should share the immutable analysis artifacts")
	}
	if &first.Reports[0] == &second.Reports[0] {
		t.Error("cached runs must not alias mutable report state")
	}
}

// Different option keys must not collide in the cache.
func TestArtifactCacheKeying(t *testing.T) {
	cache := core.NewArtifactCache()
	a, _ := cache.AnalysisPhase(&yarn.Runner{}, core.Options{Seed: 11, Scale: 1})
	b, _ := cache.AnalysisPhase(&yarn.Runner{}, core.Options{Seed: 11, Scale: 2})
	c, _ := cache.AnalysisPhase(&yarn.Runner{}, core.Options{Seed: 12, Scale: 1})
	if cache.Len() != 3 {
		t.Fatalf("cache entries = %d, want 3", cache.Len())
	}
	if a.Parsed == 0 || b.Parsed == 0 || c.Parsed == 0 {
		t.Error("every keyed analysis should parse records")
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Errorf("after Reset, entries = %d, want 0", cache.Len())
	}
}

// Concurrent first hits on the same key compute the phase exactly once
// and everyone shares the same matcher.
func TestArtifactCacheConcurrentSingleFlight(t *testing.T) {
	cache := core.NewArtifactCache()
	const n = 8
	matchers := make([]any, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, m := cache.AnalysisPhase(&yarn.Runner{}, core.Options{Seed: 11, Scale: 1})
			matchers[i] = m
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	if cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", cache.Len())
	}
	for i := 1; i < n; i++ {
		if matchers[i] != matchers[0] {
			t.Fatal("concurrent callers should share one matcher")
		}
	}
}

// A fleet worker builds one executor per leased campaign kind; the
// fault-free baseline reads no fault parameter, so the executors of one
// (system, seed, scale) share a single measurement, equal to a direct
// one, and another seed gets its own.
func TestFleetExecutorsShareOneBaseline(t *testing.T) {
	cache := core.NewArtifactCache()
	factory := core.FleetExecutors(cache, func(string) (cluster.Runner, error) { return &toysys.Runner{}, nil })
	baselineOf := func(opts core.Options) trigger.Baseline {
		x, err := factory(core.SpecOf("toysys", opts), 0)
		if err != nil {
			t.Fatal(err)
		}
		return x.(*trigger.Tester).Baseline
	}
	plain := baselineOf(core.Options{Seed: 7})
	recovery := baselineOf(core.Options{Seed: 7, Recovery: &trigger.RecoveryOptions{}})
	other := baselineOf(core.Options{Seed: 8})
	census := func(b trigger.Baseline) uintptr { return reflect.ValueOf(b.Exceptions).Pointer() }
	if census(plain) != census(recovery) {
		t.Error("two campaign kinds of one (system, seed, scale) measured the baseline twice")
	}
	if census(plain) == census(other) {
		t.Error("two seeds share one baseline")
	}
	if want := trigger.MeasureBaseline(&toysys.Runner{}, 7, 1, 3, sim.Hour); !reflect.DeepEqual(plain, want) {
		t.Errorf("memoized baseline %+v differs from a direct measurement %+v", plain, want)
	}
}
