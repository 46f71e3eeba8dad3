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

// Every fault family run through one cache must equal its uncached run
// in every result field the pipeline reports, while the profile and the
// baseline — which read no fault parameter — are built once per (system,
// seed, scale) and shared by all five families: crash, recovery,
// partition, partition-aware recovery and the consistency-guided
// partition campaign. Another seed or scale gets its own.
func TestArtifactCacheSharesProfileAndBaselineAcrossFamilies(t *testing.T) {
	census := func(b trigger.Baseline) uintptr { return reflect.ValueOf(b.Exceptions).Pointer() }
	rc := &trigger.RecoveryOptions{}
	families := []struct {
		name string
		opts core.Options
	}{
		{"crash", core.Options{Seed: 11, Scale: 1}},
		{"recovery", core.Options{Seed: 11, Scale: 1, Recovery: rc}},
		{"partition", core.Options{Seed: 11, Scale: 1, Partition: &trigger.PartitionOptions{}}},
		{"partition-recovery", core.Options{Seed: 11, Scale: 1, Recovery: rc, Partition: &trigger.PartitionOptions{}}},
		{"guided", core.Options{Seed: 11, Scale: 1, Partition: &trigger.PartitionOptions{Guided: true}}},
	}
	for _, r := range []cluster.Runner{&toysys.Runner{}, &yarn.Runner{}} {
		cache := core.NewArtifactCache()
		var first *core.Result
		for _, f := range families {
			name, opts := f.name, f.opts
			cached := cache.Run(r, opts)
			plain := core.Run(r, opts)
			if !reflect.DeepEqual(cached.Reports, plain.Reports) {
				t.Errorf("%s %s: cached reports differ from uncached", r.Name(), name)
			}
			if !reflect.DeepEqual(cached.Summary, plain.Summary) {
				t.Errorf("%s %s: summaries differ:\n  cached: %+v\n  plain:  %+v", r.Name(), name, cached.Summary, plain.Summary)
			}
			if !reflect.DeepEqual(*cached.Dynamic, *plain.Dynamic) {
				t.Errorf("%s %s: profiles differ:\n  cached: %+v\n  plain:  %+v", r.Name(), name, *cached.Dynamic, *plain.Dynamic)
			}
			if !reflect.DeepEqual(cached.Baseline, plain.Baseline) {
				t.Errorf("%s %s: baselines differ:\n  cached: %+v\n  plain:  %+v", r.Name(), name, cached.Baseline, plain.Baseline)
			}
			if first == nil {
				first = cached
				continue
			}
			if cached.Dynamic != first.Dynamic {
				t.Errorf("%s %s: profiled again instead of sharing the first family's profile", r.Name(), name)
			}
			if census(cached.Baseline) != census(first.Baseline) {
				t.Errorf("%s %s: measured the baseline again instead of sharing it", r.Name(), name)
			}
			if cached.Timing.Profile != first.Timing.Profile {
				t.Errorf("%s %s: a profile hit reports %v, not the build's cold %v", r.Name(), name, cached.Timing.Profile, first.Timing.Profile)
			}
		}
		for _, other := range []core.Options{{Seed: 12, Scale: 1}, {Seed: 11, Scale: 2}} {
			res := cache.Run(r, other)
			if res.Dynamic == first.Dynamic {
				t.Errorf("%s seed %d scale %d shares the seed 11 scale 1 profile", r.Name(), other.Seed, other.Scale)
			}
			if census(res.Baseline) == census(first.Baseline) {
				t.Errorf("%s seed %d scale %d shares the seed 11 scale 1 baseline", r.Name(), other.Seed, other.Scale)
			}
			if plain := core.Run(r, other); !reflect.DeepEqual(*res.Dynamic, *plain.Dynamic) {
				t.Errorf("%s seed %d scale %d: cached profile differs from uncached", r.Name(), other.Seed, other.Scale)
			}
		}
	}
}

// Concurrent first callers of one configuration run the pipeline once
// per memoized artifact: all of them share one profile, one baseline
// census and one snapshot plan.
func TestArtifactCacheConcurrentRunsShareOneProfile(t *testing.T) {
	cache := core.NewArtifactCache()
	const n = 8
	results := make([]*core.Result, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i] = cache.Run(&toysys.Runner{}, core.Options{Seed: 11, Scale: 1})
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	if cache.Len() != 1 || cache.Plans() != 1 {
		t.Fatalf("cache holds %d analyses and %d plans, want 1 and 1", cache.Len(), cache.Plans())
	}
	census := func(b trigger.Baseline) uintptr { return reflect.ValueOf(b.Exceptions).Pointer() }
	for i := 1; i < n; i++ {
		if results[i].Dynamic != results[0].Dynamic {
			t.Fatal("concurrent callers should share one profiler.Set")
		}
		if census(results[i].Baseline) != census(results[0].Baseline) {
			t.Fatal("concurrent callers should share one baseline")
		}
		if !reflect.DeepEqual(results[i].Reports, results[0].Reports) {
			t.Fatal("concurrent callers produced different reports")
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
	if want := trigger.MeasureBaseline(&toysys.Runner{}, 7, 1, 1, sim.Hour); !reflect.DeepEqual(plain, want) {
		t.Errorf("memoized baseline %+v differs from a direct measurement %+v", plain, want)
	}
}
