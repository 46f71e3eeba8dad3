package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/toysys"
	"repro/internal/trigger"
)

func TestRandomCampaign(t *testing.T) {
	r := &toysys.Runner{}
	b := trigger.MeasureBaseline(r, 1, 1, 2, 0)
	res := Random(r, b, Options{Seed: 1, Runs: 60})
	if res.Runs != 60 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if res.VirtualTime <= 0 {
		t.Error("no virtual time accumulated")
	}
	total := 0
	for _, n := range res.ByOutcome {
		total += n
	}
	if total != res.Runs {
		t.Errorf("outcome counts %d != runs %d", total, res.Runs)
	}
	// The toy system's post-write window (commitPending → doneCommit) is
	// large enough for random injection to hit it occasionally; the
	// pre-read window is a single event and is essentially never hit.
	if res.BugHits[toysys.BugPreRead] > res.BugHits[toysys.BugPostWrite] {
		t.Errorf("random injection hit the narrow pre-read window more than the wide post-write one: %v", res.BugHits)
	}
}

func TestRandomExcludesMasterByDefault(t *testing.T) {
	r := &toysys.Runner{}
	b := trigger.MeasureBaseline(r, 1, 1, 1, 0)
	res := Random(r, b, Options{Seed: 7, Runs: 40})
	// With the master (node0) excluded, no run can kill the coordinator,
	// so there can be no hang-by-dead-master runs beyond genuine bugs.
	if res.ByOutcome[trigger.Hang] > res.BugRuns {
		t.Errorf("outcomes inconsistent: %v", res.ByOutcome)
	}
}

func TestVictimSelection(t *testing.T) {
	nodes := []sim.NodeID{"node0:1", "node1:2", "node2:3"}
	v := victims(nodes, false)
	if len(v) != 2 {
		t.Fatalf("victims = %v", v)
	}
	for _, n := range v {
		if n.Host() == "node0" {
			t.Error("master not excluded")
		}
	}
	if len(victims(nodes, true)) != 3 {
		t.Error("IncludeMasters not honored")
	}
	// All-master clusters fall back to the full set.
	if len(victims([]sim.NodeID{"node0:1"}, false)) != 1 {
		t.Error("all-master fallback broken")
	}
}

func TestIOInjectionCampaign(t *testing.T) {
	r := &toysys.Runner{}
	res, matcher := core.AnalysisPhase(r, core.Options{Seed: 1})
	b := trigger.MeasureBaseline(r, 1, 1, 2, 0)
	_ = res
	// The toy system logs mostly on its master node, so include masters.
	out := IOInjection(r, matcher, b, Options{Seed: 1, IncludeMasters: true})
	// Two runs (before/after) per dynamic IO point.
	if out.Runs == 0 || out.Runs%2 != 0 {
		t.Errorf("IO runs = %d, want a positive even count", out.Runs)
	}
	// Excluding the master must strictly shrink the campaign; the
	// worker-side boot log keeps it non-empty.
	excl := IOInjection(r, matcher, b, Options{Seed: 1})
	if excl.Runs == 0 || excl.Runs >= out.Runs {
		t.Errorf("master exclusion not applied to IO points: excluded %d, included %d", excl.Runs, out.Runs)
	}
}

func TestCollectIOPoints(t *testing.T) {
	r := &toysys.Runner{}
	_, matcher := core.AnalysisPhase(r, core.Options{Seed: 1})
	pts := CollectIOPoints(r, matcher, 1, 1, 0)
	if len(pts) == 0 {
		t.Fatal("no dynamic IO points collected")
	}
	seen := map[string]bool{}
	for _, p := range pts {
		key := string(p.Pattern) + "@" + string(p.Node)
		if seen[key] {
			t.Errorf("duplicate IO point %s", key)
		}
		seen[key] = true
	}
}
