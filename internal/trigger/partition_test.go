// Partition fault-family tests: oracle ordering, campaign determinism
// across worker counts and fork paths, partition-aware recovery, and the
// consistency-guided mode — all driven through toysys, the reference
// system for new harness features.
package trigger_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/trigger"
)

func partitionTester(workers int, po *trigger.PartitionOptions, rc *trigger.RecoveryOptions) *trigger.Tester {
	base := &toysys.Runner{}
	return &trigger.Tester{
		Runner:    base,
		Baseline:  trigger.MeasureBaseline(base, 7, 1, 1, 0),
		Seed:      7,
		Scale:     1,
		Partition: po,
		Recovery:  rc,
		Config:    campaign.Config{Workers: workers},
	}
}

// TestPartitionCampaignFindsSplitBrain pins the family's core promise:
// cutting the network around the stash-resolved victim instead of
// crashing it exposes a split brain — the master reassigns the isolated
// worker's tasks while that worker is alive and still running them.
func TestPartitionCampaignFindsSplitBrain(t *testing.T) {
	tester := partitionTester(1, &trigger.PartitionOptions{}, nil)
	reports := tester.Campaign(toyPoints())

	found, healed := false, false
	for _, rep := range reports {
		if rep.Outcome == trigger.NotHit || rep.Outcome == trigger.Unresolved {
			continue
		}
		if !rep.Partitioned {
			t.Errorf("point %v: injected without Partitioned", rep.Dyn)
		}
		if rep.Injected == nil || rep.Injected.Kind != sim.FaultPartition {
			t.Errorf("point %v: injected fault = %+v, want partition", rep.Dyn, rep.Injected)
		}
		// A run may legitimately finish before the heal timer fires,
		// but at least one of the points must live long enough to heal.
		healed = healed || rep.Healed
		if rep.Outcome == trigger.SplitBrain {
			found = true
		}
	}
	if !healed {
		t.Error("no cut ever healed under default options")
	}
	if !found {
		outs := make([]string, 0, len(reports))
		for _, rep := range reports {
			outs = append(outs, rep.Outcome.String())
		}
		t.Fatalf("no split-brain among outcomes %v", outs)
	}

	s := trigger.Summarize(reports)
	if s.Bugs == 0 {
		t.Fatalf("summary counted no bugs: %+v", s)
	}
}

// TestPartitionCampaignDeterministic pins byte-identical reports across
// worker counts and across the run paths (clone forks vs full runs).
func TestPartitionCampaignDeterministic(t *testing.T) {
	points := toyPoints()
	seq := partitionTester(1, &trigger.PartitionOptions{}, nil)
	want := seq.Campaign(points)

	par := partitionTester(4, &trigger.PartitionOptions{}, nil)
	if got := par.Campaign(points); !reflect.DeepEqual(got, want) {
		t.Fatalf("worker-count divergence:\n got %+v\nwant %+v", got, want)
	}

	fork := partitionTester(2, &trigger.PartitionOptions{}, nil)
	fork.Snapshots = fork.BuildSnapshotPlan()
	if fork.Snapshots.Points() == 0 {
		t.Fatal("reference pass captured no points")
	}
	if got := fork.Campaign(points); !reflect.DeepEqual(got, want) {
		t.Fatalf("fork-path divergence:\n got %+v\nwant %+v", got, want)
	}
}

// TestPartitionModesInject exercises hold and delay cuts end to end.
func TestPartitionModesInject(t *testing.T) {
	for _, mode := range []sim.PartitionMode{sim.PartitionHold, sim.PartitionDelay} {
		tester := partitionTester(2, &trigger.PartitionOptions{Mode: mode}, nil)
		reports := tester.Campaign(toyPoints())
		hit := 0
		for _, rep := range reports {
			if rep.Outcome == trigger.NotHit || rep.Outcome == trigger.Unresolved {
				continue
			}
			hit++
			if !rep.Partitioned {
				t.Errorf("mode %v: injected without Partitioned", mode)
			}
		}
		if hit == 0 {
			t.Errorf("mode %v: no point fired", mode)
		}
	}
}

// TestPartitionRecoveryHoldOpen drives partition-aware recovery: the
// victim dies inside the cut, restarts into it (HoldOpen defers the
// heal past the recovery window), and the campaign still terminates
// with the partition bookkeeping consistent.
func TestPartitionRecoveryHoldOpen(t *testing.T) {
	tester := partitionTester(2,
		&trigger.PartitionOptions{HoldOpen: true},
		&trigger.RecoveryOptions{})
	reports := tester.Campaign(toyPoints())
	restarted := false
	for _, rep := range reports {
		if rep.Outcome == trigger.NotHit || rep.Outcome == trigger.Unresolved {
			continue
		}
		if !rep.Partitioned {
			t.Errorf("point %v: injected without Partitioned", rep.Dyn)
		}
		if len(rep.Restarted) > 0 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatal("no victim was restarted in partition-recovery mode")
	}
}

// TestNeverHealOption pins HealAfter<0: the cut stays open forever and
// the reports say so.
func TestNeverHealOption(t *testing.T) {
	tester := partitionTester(2, &trigger.PartitionOptions{HealAfter: -1}, nil)
	for _, rep := range tester.Campaign(toyPoints()) {
		if rep.Healed {
			t.Fatalf("point %v healed despite HealAfter<0", rep.Dyn)
		}
	}
}

// fakeRun is a minimal cluster.Run over the shared Base, used to pin
// the oracle's NeverHeals branch without a Healer in the way.
type fakeRun struct{ *cluster.Base }

func (f *fakeRun) Start() {}

// TestEvaluatePartitionNeverHeals pins the oracle ordering contract on
// the never-heals branch: cut healed, ledger still holding an alive
// node, otherwise-clean run.
func TestEvaluatePartitionNeverHeals(t *testing.T) {
	run := &fakeRun{Base: cluster.NewBase(cluster.Config{Seed: 1})}
	e := run.Engine()
	a := e.AddNode("a", 1).ID
	b := e.AddNode("b", 2).ID
	if !cluster.Partition(run, []sim.NodeID{b}, sim.PartitionDrop, 0) {
		t.Fatal("partition refused")
	}
	// The cluster disconnects b while the cut separates it from a.
	run.NotePartitionLost(a, b)
	// No Healer implemented: the heal closes the cut but nothing
	// re-admits b.
	if !cluster.Heal(run) {
		t.Fatal("heal refused")
	}
	run.Succeed()

	o := trigger.EvaluatePartition(trigger.Baseline{}, run, sim.RunResult{}, nil, 4, false)
	if o != trigger.NeverHeals {
		t.Fatalf("outcome = %v, want never-heals", o)
	}
	if !o.IsBug() || !o.IsPartitionBug() {
		t.Fatal("never-heals must count as a partition bug")
	}

	// A split brain recorded during the run outranks it (cause before
	// symptom).
	if !cluster.Partition(run, []sim.NodeID{b}, sim.PartitionDrop, 0) {
		t.Fatal("second partition refused")
	}
	run.NoteSplitBrain(a, b)
	if o := trigger.EvaluatePartition(trigger.Baseline{}, run, sim.RunResult{}, nil, 4, false); o != trigger.SplitBrain {
		t.Fatalf("outcome = %v, want split-brain", o)
	}
}

// TestGuidedPointsAndCampaign pins consistency-guided mode end to end
// on toysys: the learn pass keeps invariants, the monitor pass binds a
// violation to an access ordinal, and the guided campaign injects a cut
// there — deterministically across worker counts.
func TestGuidedPointsAndCampaign(t *testing.T) {
	tester := partitionTester(1, &trigger.PartitionOptions{Guided: true}, nil)
	points := tester.GuidedPoints()
	if len(points) == 0 {
		t.Fatal("no guided points inferred on toysys")
	}
	for _, gp := range points {
		if gp.Dyn.Point == "" {
			t.Fatalf("guided point with empty dyn: %+v", gp)
		}
	}
	// The two passes are deterministic: repeat and compare.
	if again := tester.GuidedPoints(); !reflect.DeepEqual(again, points) {
		t.Fatalf("GuidedPoints not deterministic:\n got %+v\nwant %+v", again, points)
	}

	want := tester.GuidedCampaign(points)
	injected := false
	for _, rep := range want {
		if !rep.Guided {
			t.Fatalf("report without Guided: %+v", rep)
		}
		if rep.Outcome != trigger.NotHit && rep.Outcome != trigger.Unresolved {
			injected = true
			if !rep.Partitioned {
				t.Errorf("guided injection without Partitioned: %+v", rep)
			}
		}
	}
	if !injected {
		t.Fatal("no guided injection fired")
	}

	par := partitionTester(4, &trigger.PartitionOptions{Guided: true}, nil)
	if got := par.GuidedCampaign(points); !reflect.DeepEqual(got, want) {
		t.Fatalf("guided campaign diverges across worker counts:\n got %+v\nwant %+v", got, want)
	}
}
