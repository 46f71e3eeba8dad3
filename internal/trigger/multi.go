package trigger

// Multiple-crash-event testing — the paper's future-work extension (§6):
// instead of one injection per run, arm an ordered pair of dynamic crash
// points and inject at both, covering bugs that need two faults (the 34
// studied bugs excluded in §2 involve multiple crash events).
//
// The pair fires in order: the second point is only armed after the
// first injection happened, so the two faults land in the intended
// sequence. Everything else — stash-resolved targets, the §3.2.2 oracle
// — is shared with single-point testing.

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/cluster"
)

// PairReport is the result of one two-fault run.
type PairReport struct {
	First, Second probe.DynPoint
	Outcome       Outcome
	Injections    []sim.FaultRecord
	Witnesses     []string
	NewExceptions []string
	Duration      sim.Time
	Reason        string
}

// TestPair runs the system once with injections armed at the ordered
// pair (first, second).
func (t *Tester) TestPair(first, second probe.DynPoint) PairReport {
	timeoutFactor := t.timeoutFactor()
	deadline := t.RunDeadline()

	pb := probe.New()
	logs := dslog.NewRoot()
	matcher := t.matcher()
	st := stash.New(t.Runner.Hosts(), matcher, t.Analysis)
	st.Attach(logs)
	run := t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: logs})
	e := run.Engine()
	e.MaxSteps = t.MaxSteps

	rep := PairReport{First: first, Second: second, Outcome: NotHit}
	stage := 0 // 0: waiting for first, 1: waiting for second, 2: done
	inject := func(d probe.DynPoint, a probe.Access) bool {
		target, ok := t.chooseTarget(e, st, a)
		if !ok {
			return false
		}
		if d.Scenario == crashpoint.PreRead {
			e.Shutdown(target)
		} else {
			e.Crash(target)
		}
		return true
	}
	pb.OnAccess = func(a probe.Access) {
		switch stage {
		case 0:
			if a.Dyn() == first && inject(first, a) {
				stage = 1
			}
		case 1:
			if a.Dyn() == second && inject(second, a) {
				stage = 2
			}
		}
	}

	res := cluster.Drive(run, deadline)
	rep.Duration = res.End
	rep.Injections = e.Faults()
	rep.Witnesses = run.Witnesses()
	rep.Reason = run.FailureReason()
	rep.NewExceptions = t.newUnhandled(e)
	if res.Exhausted {
		rep.Outcome = HarnessError
		return rep
	}
	if stage == 0 {
		rep.Outcome = NotHit
		return rep
	}
	rep.Outcome = Evaluate(t.Baseline, run, res, rep.NewExceptions, timeoutFactor)
	return rep
}

// PairCampaign tests every ordered pair drawn from points, capped at
// maxPairs runs (0 means all pairs — quadratic, use with care). Like
// Campaign, the pairs fan out across the Tester's worker pool and the
// reports come back in enumeration order.
func (t *Tester) PairCampaign(points []probe.DynPoint, maxPairs int) []PairReport {
	type pair struct{ first, second probe.DynPoint }
	var pairs []pair
enumerate:
	for _, a := range points {
		for _, b := range points {
			if a == b {
				continue
			}
			if maxPairs > 0 && len(pairs) >= maxPairs {
				break enumerate
			}
			pairs = append(pairs, pair{a, b})
		}
	}
	return campaign.Run(len(pairs), campaign.Options[PairReport]{
		Workers: t.Workers,
		// Same panic isolation as Campaign: one broken pair run must not
		// sink the other pairs.
		Recover: func(i int, v any) PairReport {
			return PairReport{
				First:   pairs[i].first,
				Second:  pairs[i].second,
				Outcome: HarnessError,
				Reason:  fmt.Sprintf("panic in system model: %v", v),
			}
		},
	}, func(i int) PairReport {
		return t.TestPair(pairs[i].first, pairs[i].second)
	})
}
