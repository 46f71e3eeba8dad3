package trigger

// In-package snapshot tests: the fingerprint fence, NotHit synthesis and
// plan-compatibility gating, all pinned against the legacy full-run path
// on the toy system. The cross-system differential oracle lives in the
// external test package (snapshot_diff_test.go), which can import core.

import (
	"reflect"
	"testing"

	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
)

// toyTester builds a Tester with a real meta-info analysis (the core
// package wraps this, but importing it here would be a cycle).
func toyTester(t *testing.T, r *toysys.Runner) *Tester {
	t.Helper()
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: 1, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, sim.Hour)
	matcher := logparse.NewMatcher(logparse.ExtractPatterns(r.Program()))
	parsed := matcher.ParseAll(logs.Records())
	analysis := metainfo.Infer(r.Program(), parsed.Matches, r.Hosts())
	b := MeasureBaseline(r, 1, 1, 2, 0)
	return &Tester{Runner: r, Analysis: analysis, Matcher: matcher, Baseline: b, Seed: 1, Scale: 1}
}

// planPoint returns the captured dynamic point with the smallest
// dispatch ordinal — a deterministic pick across map iteration order.
func planPoint(t *testing.T, p *SnapshotPlan) probe.DynPoint {
	t.Helper()
	var best probe.DynPoint
	found := false
	for d, ps := range p.points {
		if !found || ps.ordinal < p.points[best].ordinal {
			best, found = d, true
		}
	}
	if !found {
		t.Fatal("snapshot plan captured no points")
	}
	return best
}

func TestSnapshotForkMatchesLegacyRun(t *testing.T) {
	tester := toyTester(t, &toysys.Runner{})
	plan := tester.BuildSnapshotPlan()
	if plan.Points() == 0 {
		t.Fatal("reference pass captured no points")
	}
	if plan.Rungs() == 0 {
		t.Fatal("toysys is Cloneable but the plan captured no clone rungs")
	}
	d := planPoint(t, plan)
	want := tester.TestPoint(d) // Snapshots nil: the legacy full run

	clones := cloneForks.Value()
	tester.Snapshots = plan
	got := tester.TestPoint(d)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forked report diverged:\nlegacy   %+v\nsnapshot %+v", want, got)
	}
	if v := cloneForks.Value(); v != clones+1 {
		t.Errorf("clone_forks_total moved %d→%d, want one clone fork", clones, v)
	}
}

func TestSnapshotSynthesizesNotHit(t *testing.T) {
	tester := toyTester(t, &toysys.Runner{})
	plan := tester.BuildSnapshotPlan()
	d := probe.DynPoint{
		Point:    "toy.Master.handleLost#0", // never executes fault-free
		Scenario: crashpoint.PostWrite,
		Stack:    "toy.Master.handleLost",
	}
	if plan.Hit(d) {
		t.Fatalf("reference pass unexpectedly hit %s", d.Key())
	}
	want := tester.TestPoint(d)

	synth := snapshotSynth.Value()
	tester.Snapshots = plan
	got := tester.TestPoint(d)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("synthesized report diverged:\nlegacy     %+v\nsynthesized %+v", want, got)
	}
	if got.Outcome != NotHit {
		t.Errorf("outcome = %v, want not-hit", got.Outcome)
	}
	if v := snapshotSynth.Value(); v != synth+1 {
		t.Errorf("snapshot_synthesized_total moved %d→%d, want one synthesis", synth, v)
	}
}

// TestSnapshotFenceFallsBackOnDivergence corrupts a recorded fingerprint
// so the clone fork trips its fence mid-replay; the point must
// transparently re-run as the full run and still report identically.
func TestSnapshotFenceFallsBackOnDivergence(t *testing.T) {
	tester := toyTester(t, &toysys.Runner{})
	plan := tester.BuildSnapshotPlan()
	d := planPoint(t, plan)
	want := tester.TestPoint(d)

	ps := plan.points[d]
	ps.fp.NodeSum++ // any field will do: the fence compares the whole struct
	plan.points[d] = ps

	fallbacks, clones := cloneFallbacks.Value(), cloneForks.Value()
	tester.Snapshots = plan
	got := tester.TestPoint(d)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallback report diverged:\nlegacy   %+v\nfallback %+v", want, got)
	}
	if v := cloneFallbacks.Value(); v != fallbacks+1 {
		t.Errorf("clone_fallbacks_total moved %d→%d, want one clone fallback", fallbacks, v)
	}
	if v := cloneForks.Value(); v != clones {
		t.Errorf("clone_forks_total moved %d→%d on an abandoned fork", clones, v)
	}
}

// TestSnapshotPlanParameterMismatchIgnored: a plan recorded under other
// run parameters must be declined wholesale, not fenced fork-by-fork.
func TestSnapshotPlanParameterMismatchIgnored(t *testing.T) {
	tester := toyTester(t, &toysys.Runner{})
	plan := tester.BuildSnapshotPlan()
	d := planPoint(t, plan)

	tester.Seed++ // the plan no longer matches
	legacy := *tester
	legacy.Snapshots = nil
	want := legacy.TestPoint(d)

	clones, synth := cloneForks.Value(), snapshotSynth.Value()
	tester.Snapshots = plan
	got := tester.TestPoint(d)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mismatched-plan report diverged:\nlegacy %+v\ngot    %+v", want, got)
	}
	if cloneForks.Value() != clones || snapshotSynth.Value() != synth {
		t.Error("an incompatible plan was consulted")
	}
}

// nonCloneableRun hides the concrete run behind the bare cluster.Run
// interface, so the Cloneable type assertion fails even though the
// underlying toysys run would satisfy it.
type nonCloneableRun struct{ cluster.Run }

type nonCloneableRunner struct{ *toysys.Runner }

func (r nonCloneableRunner) NewRun(cfg cluster.Config) cluster.Run {
	return nonCloneableRun{r.Runner.NewRun(cfg)}
}

// TestSnapshotNonCloneableDegradesToFullRun: a system that does not
// implement cluster.Cloneable gets a rung-less plan and every hit point
// takes the full run — same reports, clone_forks_total standing still.
func TestSnapshotNonCloneableDegradesToFullRun(t *testing.T) {
	base := &toysys.Runner{}
	tester := toyTester(t, base)
	tester.Runner = nonCloneableRunner{base}
	plan := tester.BuildSnapshotPlan()
	if plan.Rungs() != 0 {
		t.Fatalf("non-Cloneable plan captured %d rungs, want none", plan.Rungs())
	}
	d := planPoint(t, plan)
	want := tester.TestPoint(d)

	clones := cloneForks.Value()
	tester.Snapshots = plan
	got := tester.TestPoint(d)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("non-Cloneable run diverged:\nlegacy %+v\ngot    %+v", want, got)
	}
	if v := cloneForks.Value(); v != clones {
		t.Errorf("clone_forks_total moved %d→%d on a non-Cloneable system", clones, v)
	}
}
