package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/systems/toysys"
)

// Snapshot-forked campaigns are the pipeline's only path; the full run
// from t=0 is the reference. The two must be indistinguishable in every
// result field the pipeline reports.
func TestPipelineSnapshotsMatchFullReplay(t *testing.T) {
	r := &toysys.Runner{}
	legacy := core.RunFullReplay(t, r, core.Options{Seed: 7})
	snap := core.Run(r, core.Options{Seed: 7})

	if !reflect.DeepEqual(legacy.Baseline, snap.Baseline) {
		t.Errorf("baselines diverged:\nlegacy   %+v\nsnapshot %+v", legacy.Baseline, snap.Baseline)
	}
	if len(legacy.Reports) != len(snap.Reports) {
		t.Fatalf("%d legacy reports vs %d snapshot reports", len(legacy.Reports), len(snap.Reports))
	}
	for i := range legacy.Reports {
		if !reflect.DeepEqual(legacy.Reports[i], snap.Reports[i]) {
			t.Errorf("report %d diverged:\nlegacy   %+v\nsnapshot %+v",
				i, legacy.Reports[i], snap.Reports[i])
		}
	}
	if !reflect.DeepEqual(legacy.Summary, snap.Summary) {
		t.Errorf("summaries diverged:\nlegacy   %+v\nsnapshot %+v", legacy.Summary, snap.Summary)
	}
	if legacy.Timing.VirtualTest != snap.Timing.VirtualTest {
		t.Errorf("virtual test time diverged: legacy %v, snapshot %v",
			legacy.Timing.VirtualTest, snap.Timing.VirtualTest)
	}
}

// An ArtifactCache memoizes snapshot plans next to the analysis
// artifacts: repeated runs over the same parameters share one reference
// pass, and the shared plan changes nothing in the results.
func TestArtifactCacheMemoizesSnapshotPlans(t *testing.T) {
	cache := core.NewArtifactCache()
	opts := core.Options{Seed: 7}
	first := cache.Run(&toysys.Runner{}, opts)
	plans := cache.Plans()
	if plans == 0 {
		t.Fatal("cached run built no snapshot plan")
	}
	second := cache.Run(&toysys.Runner{}, opts)
	if got := cache.Plans(); got != plans {
		t.Errorf("repeat run grew the plan cache: %d -> %d", plans, got)
	}
	if !reflect.DeepEqual(first.Reports, second.Reports) {
		t.Error("cached-plan run reports diverged across repeats")
	}

	plain := core.Run(&toysys.Runner{}, opts)
	if !reflect.DeepEqual(plain.Summary, second.Summary) {
		t.Errorf("cached-plan summary diverged from uncached:\nuncached %+v\ncached   %+v",
			plain.Summary, second.Summary)
	}

	cache.Reset()
	if cache.Plans() != 0 {
		t.Error("Reset kept memoized plans")
	}
}
