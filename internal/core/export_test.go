package core

import (
	"testing"

	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// RunFullReplay is Run with no snapshot plan installed, so every
// injection run, retries included, is the full run from t=0: the
// reference leg of the pipeline-level differential test. It runs under
// a fresh ArtifactCache whose plan memo already holds a nil plan for
// both scales TestPhase forks at (the base scale and the profiler's
// final one), and fails tb if the pipeline built a plan anyway.
func RunFullReplay(tb testing.TB, r cluster.Runner, opts Options) *Result {
	tb.Helper()
	opts.defaults()
	c := NewArtifactCache()
	res, _ := c.AnalysisPhase(r, opts)
	c.profilePhase(r, res, opts)
	deadline := (&trigger.Tester{Baseline: c.Baseline(r, opts)}).RunDeadline()
	for _, scale := range []int{opts.Scale, res.Dynamic.FinalScale} {
		key := planKey{system: r.Name(), seed: opts.Seed, scale: scale, deadline: deadline, maxSteps: opts.MaxSteps}
		c.plans.get(key, func() *trigger.SnapshotPlan { return nil })
	}
	seeded := c.Plans()
	out := c.Run(r, opts)
	if built := c.Plans() - seeded; built != 0 {
		tb.Fatalf("pipeline built %d snapshot plans outside the nil-seeded keys", built)
	}
	return out
}
