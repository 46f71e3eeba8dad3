package report

// Partition-family campaigns: rerun the injection campaign with the
// trigger's partition mode — cut the stash-resolved victim off instead
// of crashing it — and tabulate the split-brain / stale-read /
// never-heals oracle outcomes. This is the reproduction's CoFI-flavored
// extension: the same meta-info locates the victim, but the fault is a
// network cut the cluster must survive and then reconcile after the
// heal.

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trigger"
)

// RunPartition executes the partition-mode pipeline on every system.
// po == nil uses the default partition options (drop-mode cut, healed
// after the default interval). The offline phases come from the
// artifact cache when one is configured, so only the injection runs are
// paid again.
func (x *Experiments) RunPartition(po *trigger.PartitionOptions) {
	if po == nil {
		po = &trigger.PartitionOptions{}
	}
	systems := x.Systems
	outs := campaign.Run(len(systems), campaign.Options[*core.Result]{
		Workers: x.Workers,
		Sink:    x.Sink,
		Scope:   obs.Scope{Campaign: "partition-pipelines"},
	}, func(i int) *core.Result {
		r := systems[i]
		opts := core.Options{
			Config: campaign.Config{
				Workers:        x.Workers,
				CheckpointPath: x.checkpointPath(r.Name(), ".partition.ckpt"),
				Resume:         x.Resume,
				Sink:           x.Sink,
				Recorder:       x.Recorder,
			},
			Seed: x.Seed, Scale: x.Scale,
			Partition: po,
		}
		res, _ := x.pipeline(r, opts)
		return res
	})
	for i, r := range systems {
		x.Partitioned[r.Name()] = outs[i]
	}
}

// PartitionTable renders the partition-campaign results: how many runs
// opened and healed a cut and what the partition oracles found.
func (x *Experiments) PartitionTable() string {
	t := &tw{}
	t.row("System", "Tested", "Cut runs", "Healed", "Guided", "Split brain",
		"Stale read", "Never heals", "Harness errors", "Bug reports", "Distinct bugs")
	for _, r := range x.Systems {
		res := x.Partitioned[r.Name()]
		if res == nil {
			continue
		}
		s := res.Summary
		t.row(r.Name(),
			fmt.Sprintf("%d", s.Tested),
			fmt.Sprintf("%d", s.Partitions),
			fmt.Sprintf("%d", s.Heals),
			fmt.Sprintf("%d", s.Guided),
			fmt.Sprintf("%d", s.ByOutcome[trigger.SplitBrain]),
			fmt.Sprintf("%d", s.ByOutcome[trigger.StaleRead]),
			fmt.Sprintf("%d", s.ByOutcome[trigger.NeverHeals]),
			fmt.Sprintf("%d", s.HarnessErrors),
			fmt.Sprintf("%d", s.Bugs),
			fmt.Sprintf("%d", s.DistinctBugs))
	}
	return "Partition campaign: network cuts at crash points (split-brain / stale-read / never-heals oracles)\n" + t.String()
}
