package all

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// partitionChaosOutcome is everything observable about one randomized
// partition/heal/crash/restart schedule.
type partitionChaosOutcome struct {
	faults  []sim.FaultRecord
	status  cluster.Status
	end     sim.Time
	cuts    int
	heals   int
	restart int
}

// runPartitionChaos drives one system under a randomized schedule mixing
// all four fault primitives: every 150 ms it opens a cut around a random
// alive node (drop/hold/delay in rotation), heals an open cut, crashes or
// shuts down a node, or restarts one it killed earlier. The schedule's
// randomness comes from a fixed-seed generator consumed in event order,
// so the execution is deterministic and replayable.
func runPartitionChaos(t *testing.T, r cluster.Runner, seed int64) partitionChaosOutcome {
	t.Helper()
	run := r.NewRun(cluster.Config{Seed: 13, Scale: 1})
	e := run.Engine()
	e.MaxSteps = 10_000_000
	rng := rand.New(rand.NewSource(seed))
	var out partitionChaosOutcome
	var dead []sim.NodeID
	modes := []sim.PartitionMode{sim.PartitionDrop, sim.PartitionHold, sim.PartitionDelay}
	for i := 0; i < 60; i++ {
		at := sim.Time(i+1) * 150 * sim.Millisecond
		e.After(at, func() {
			switch rng.Intn(4) {
			case 0:
				alive := e.AliveNodes()
				if len(alive) == 0 {
					return
				}
				id := alive[rng.Intn(len(alive))]
				mode := modes[rng.Intn(len(modes))]
				if cluster.Partition(run, []sim.NodeID{id}, mode, 0) {
					out.cuts++
				}
			case 1:
				if cluster.Heal(run) {
					out.heals++
				}
			case 2:
				alive := e.AliveNodes()
				if len(alive) == 0 {
					return
				}
				id := alive[rng.Intn(len(alive))]
				if rng.Intn(2) == 0 {
					e.Crash(id)
				} else {
					e.Shutdown(id)
				}
				dead = append(dead, id)
			case 3:
				if len(dead) == 0 {
					return
				}
				k := rng.Intn(len(dead))
				if cluster.Restart(run, dead[k]) {
					out.restart++
					dead = append(dead[:k], dead[k+1:]...)
				}
			}
		})
	}
	run.Start()
	res := e.Run(30 * sim.Second)
	if res.Exhausted {
		t.Fatalf("%s: partition chaos exhausted the step budget (livelock)", r.Name())
	}
	out.faults = e.Faults()
	out.status = run.Status()
	out.end = res.End
	return out
}

// TestRandomPartitionSchedulesAllSystems subjects every system to a
// randomized partition/heal/crash/restart schedule and checks the family
// invariants: the run terminates within its step budget, the schedule
// replays byte-identically, cuts actually open and heal, and the
// partition ledger stays consistent with the schedule.
func TestRandomPartitionSchedulesAllSystems(t *testing.T) {
	for _, r := range append(Runners(), Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			a := runPartitionChaos(t, r, 42)
			b := runPartitionChaos(t, r, 42)

			if !reflect.DeepEqual(a.faults, b.faults) {
				t.Errorf("fault traces differ across identical schedules:\n%v\nvs\n%v", a.faults, b.faults)
			}
			if a.status != b.status || a.end != b.end {
				t.Errorf("outcomes differ: %v@%v vs %v@%v", a.status, a.end, b.status, b.end)
			}
			if a.cuts == 0 {
				t.Error("schedule opened no cut; test is vacuous")
			}
			if a.cuts != b.cuts || a.heals != b.heals || a.restart != b.restart {
				t.Errorf("schedule actions diverge: %+v vs %+v", a, b)
			}
		})
	}
}

// TestPartitionCampaignFindsBugsEverySystem is the family's acceptance
// bar: a partition campaign at scale 2 finds at least one partition bug
// (split-brain, stale-read, or never-heals) in every one of the seven
// systems, and the reports are byte-identical across worker counts.
func TestPartitionCampaignFindsBugsEverySystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full seven-system partition campaign")
	}
	for _, r := range append(Runners(), Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			opts := core.Options{
				Seed:      5,
				Scale:     2,
				Partition: &trigger.PartitionOptions{},
				Config:    campaign.Config{Workers: 1},
			}
			res, matcher := core.AnalysisPhase(r, opts)
			core.ProfilePhase(r, res, opts)
			core.TestPhase(r, matcher, res, opts)

			bugs := 0
			for _, rep := range res.Reports {
				if rep.Outcome.IsPartitionBug() {
					bugs++
				}
			}
			if bugs == 0 {
				outs := map[string]int{}
				for _, rep := range res.Reports {
					outs[rep.Outcome.String()]++
				}
				t.Fatalf("no partition bug found; outcomes: %v", outs)
			}

			// Determinism across worker counts. Forked runs against full
			// runs is trigger's TestPartitionCampaignsMatchLegacyEverySystem.
			par := opts
			par.Config = campaign.Config{Workers: 8}
			res2, matcher2 := core.AnalysisPhase(r, par)
			core.ProfilePhase(r, res2, par)
			core.TestPhase(r, matcher2, res2, par)
			if !reflect.DeepEqual(res.Reports, res2.Reports) {
				t.Fatalf("partition campaign diverges across worker counts:\n%+v\nvs\n%+v",
					res.Reports, res2.Reports)
			}
		})
	}
}
