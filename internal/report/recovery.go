package report

// Recovery-phase campaigns: rerun the injection campaign with the
// trigger's recovery mode — restart the victim after the fault,
// optionally fault it again inside the recovery window — and tabulate
// the recovery-oracle outcomes. This is the reproduction's answer to the
// paper's observation (§2) that many studied crash-recovery bugs need a
// node to come *back*, not just to go away.

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trigger"
)

// RunRecovery executes the recovery-mode pipeline on every system
// (Table 4 systems plus the extensions). rc == nil uses the default
// recovery options (restart 2 s after the fault, no second fault). The
// offline phases come from the artifact cache when one is configured,
// so only the injection runs are paid again.
func (x *Experiments) RunRecovery(rc *trigger.RecoveryOptions) {
	if rc == nil {
		rc = &trigger.RecoveryOptions{}
	}
	systems := x.Systems
	outs := campaign.Run(len(systems), campaign.Options[*core.Result]{
		Workers: x.Workers,
		Sink:    x.Sink,
		Scope:   obs.Scope{Campaign: "recovery-pipelines"},
	}, func(i int) *core.Result {
		r := systems[i]
		opts := core.Options{
			Config: campaign.Config{
				Workers:        x.Workers,
				CheckpointPath: x.checkpointPath(r.Name(), ".recovery.ckpt"),
				Resume:         x.Resume,
				Sink:           x.Sink,
				Recorder:       x.Recorder,
			},
			Seed: x.Seed, Scale: x.Scale,
			Recovery: rc,
		}
		res, _ := x.pipeline(r, opts)
		return res
	})
	for i, r := range systems {
		x.Recovered[r.Name()] = outs[i]
	}
}

// RecoveryTable renders the recovery-campaign results: how many runs
// restarted their victim and what the recovery oracles found.
func (x *Experiments) RecoveryTable() string {
	t := &tw{}
	t.row("System", "Tested", "Restart runs", "Never rejoined", "Rejoin no work",
		"Dup incarnation", "Harness errors", "Bug reports", "Distinct bugs")
	for _, r := range x.Systems {
		res := x.Recovered[r.Name()]
		if res == nil {
			continue
		}
		s := res.Summary
		t.row(r.Name(),
			fmt.Sprintf("%d", s.Tested),
			fmt.Sprintf("%d", s.Restarts),
			fmt.Sprintf("%d", s.ByOutcome[trigger.NeverRejoined]),
			fmt.Sprintf("%d", s.ByOutcome[trigger.RejoinNoWork]),
			fmt.Sprintf("%d", s.ByOutcome[trigger.DuplicateIncarnation]),
			fmt.Sprintf("%d", s.HarnessErrors),
			fmt.Sprintf("%d", s.Bugs),
			fmt.Sprintf("%d", s.DistinctBugs))
	}
	return "Recovery campaign: injections followed by victim restart (recovery oracles per §3.2.2 extension)\n" + t.String()
}
