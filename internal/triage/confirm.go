package triage

import (
	"repro/internal/campaign"
	"repro/internal/obs"
)

// Label classifies a cluster after a confirmation pass.
type Label string

const (
	// Confirmed: the replay reproduced the cluster.
	Confirmed Label = "CONFIRMED"
	// Unreproduced: the replay did not hit the cluster's signature.
	// Execution is deterministic, so for a record the executor can
	// rebuild this is a determinism violation, not bad luck. Records
	// do not carry their fault parameters, so an executor built
	// without the recording campaign's recovery or RandomTarget
	// options (as cttriage confirm's is) cannot rebuild those records
	// and labels them UNREPRODUCED without any violation.
	Unreproduced Label = "UNREPRODUCED"
)

// Confirmation is the persisted verdict of one confirmation pass.
// Stores written before confirmation became a single replay also hold
// FLAKY verdicts over several attempts; they load and render unchanged.
type Confirmation struct {
	Sig        string `json:"sig"` // signature key of the confirmed cluster
	Label      Label  `json:"label"`
	Runs       int    `json:"runs"`       // replays run (1 for new verdicts)
	Reproduced int    `json:"reproduced"` // replays matching the cluster
}

// Execute replays a cluster's representative record and returns what
// the replay observed, whether it failed or not. The core package
// provides the real implementation on top of the trigger; tests inject
// synthetic ones.
type Execute func(rec Record) Record

// Confirm replays the cluster's representative crash point once and
// labels the cluster CONFIRMED when the replay matches it (same
// signature key, or a near-duplicate under the stack-prefix fallback),
// UNREPRODUCED otherwise. The seed reaches only the injector, so one
// exact replay says everything further replays would. The replay runs
// as a one-job campaign, so sink sees it under Scope{System, Campaign:
// "triage"} like any other campaign's runs.
func Confirm(c *Cluster, sink obs.Sink, exec Execute) Confirmation {
	rep := c.Representative()
	results := campaign.Run(1, campaign.Options[Record]{
		Sink:  sink,
		Scope: obs.Scope{System: rep.System, Campaign: "triage"},
		Annotate: func(ev *obs.Event, i int, r Record) {
			if c.Matches(r) {
				ev.Bugs = 1
			}
			ev.Crash = rep.Point
			ev.Fault = r.Fault
			ev.Target = r.Target
			ev.Outcome = r.Outcome
			ev.Sim = r.Duration
		},
	}, func(int) Record {
		return exec(rep)
	})
	conf := Confirmation{Sig: c.Sig.Key(), Label: Unreproduced, Runs: 1}
	if c.Matches(results[0]) {
		conf.Label, conf.Reproduced = Confirmed, 1
	}
	return conf
}
