// Network-partition fault family (the robustness extension): instead of
// crashing the stash-resolved target, the campaign opens a single-node
// network cut around it — dropping, holding or delaying its message
// edges — optionally heals it after a configurable window, and extends
// the §3.2.2 oracle with three partition conditions:
//
//   - SplitBrain: work was reassigned while its owner was alive on the
//     far side of the cut — two alive nodes owning the same work;
//   - StaleRead: the cluster rejected state from a formerly-isolated
//     node (a superseded attempt, an old epoch) after traffic resumed;
//   - NeverHeals: the cut healed but an alive node the cluster had
//     disconnected never re-entered it.
//
// The consistency-guided mode (CoFI's observation on CrashTuner's
// meta-info machinery) replaces "inject at the crash point's first hit"
// with "inject at the first observed cross-node invariant violation":
// internal/partition infers invariants from one clean run, a second
// identical run watches them, and each first violation becomes a guided
// injection ordinal.
package trigger

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/cluster"
)

// DefaultHealAfter is the default partition-heal delay. It deliberately
// exceeds the 3 s liveness timeout the systems share, so the cluster
// notices the cut (declares the victim lost, reassigns its work — the
// split-brain window) before connectivity returns.
const DefaultHealAfter = 5 * sim.Second

// PartitionOptions configures partition-family injection.
type PartitionOptions struct {
	// Mode selects what happens to messages crossing the cut:
	// sim.PartitionDrop (default), PartitionHold or PartitionDelay.
	Mode sim.PartitionMode
	// Delay is the extra latency of PartitionDelay mode; zero means
	// sim.DefaultPartitionDelay.
	Delay sim.Time
	// HealAfter is how long after the injection the cut is healed. Zero
	// means DefaultHealAfter; negative means the cut is never healed.
	HealAfter sim.Time
	// HoldOpen, with Recovery also configured, keeps the cut open
	// through the whole recovery window: the heal is pushed past the
	// victim's restart (and past the second fault, if one is armed), so
	// the node rejoins INTO the partition.
	HoldOpen bool
	// Guided switches the campaign to consistency-guided injection; see
	// Tester.GuidedPoints / Tester.GuidedCampaign.
	Guided bool
}

func (po *PartitionOptions) delay() sim.Time {
	if po.Delay > 0 {
		return po.Delay
	}
	return sim.DefaultPartitionDelay
}

func (po *PartitionOptions) healAfter() sim.Time {
	if po.HealAfter != 0 {
		return po.HealAfter
	}
	return DefaultHealAfter
}

// scheduleHeal arms the cut's heal. With HoldOpen and a recovery window
// configured, the heal is measured from the end of that window
// (restart, plus the second fault if armed) instead of from the
// injection, so recovery runs entirely inside the partition.
func (t *Tester) scheduleHeal(sysRun cluster.Run, rep *Report) {
	po := t.Partition
	heal := po.healAfter()
	if heal < 0 {
		return // never heals by configuration
	}
	at := heal
	if po.HoldOpen && t.Recovery != nil {
		at += t.Recovery.restartDelay()
		if t.Recovery.SecondFaultDelay > 0 {
			at += t.Recovery.SecondFaultDelay
		}
	}
	sysRun.Engine().After(at, func() {
		if cluster.Heal(sysRun) {
			rep.Healed = true
		}
	})
}

// EvaluatePartition extends the oracle with the partition conditions of
// a network-cut campaign. SplitBrain is checked before the base oracle:
// double ownership usually *also* fails or hangs the workload, and the
// split brain is the cause, not the symptom. NeverHeals and StaleRead
// only upgrade otherwise-clean runs — a job failure or a hang is
// already the stronger verdict. NeverHeals requires the cut to have
// actually healed (an open cut never gave the node a chance back) and
// only counts alive orphans: a node that died under the cut is not
// expected to reconnect.
func EvaluatePartition(b Baseline, run cluster.Run, res sim.RunResult, newEx []string, timeoutFactor int, recovery bool) Outcome {
	base := func() Outcome {
		if recovery {
			return EvaluateRecovery(b, run, res, newEx, timeoutFactor)
		}
		return Evaluate(b, run, res, newEx, timeoutFactor)
	}
	pr, ok := run.(cluster.PartitionReporter)
	if !ok {
		return base()
	}
	if res.Exhausted {
		return HarnessError
	}
	pi, any := pr.Partition()
	if !any {
		return base()
	}
	if pi.SplitBrains > 0 {
		return SplitBrain
	}
	o := base()
	if o != OK && o != TimeoutIssue {
		return o
	}
	if pi.Healed {
		e := run.Engine()
		for _, id := range pr.Unreconnected() {
			if n := e.Node(id); n != nil && n.Alive() {
				return NeverHeals
			}
		}
	}
	if pi.StaleReads > 0 {
		return StaleRead
	}
	return o
}

// GuidedPoint is one consistency-guided injection site: the probe
// access right after the first observed violation of one inferred
// invariant, identified by its dispatch ordinal.
type GuidedPoint struct {
	// Dyn is the dynamic point of the access the injection rides on (the
	// first access dispatched at or after the violation).
	Dyn probe.DynPoint
	// Ordinal is the access's dispatch ordinal: the number of probe
	// accesses delivered before it. The guided run fast-forwards there
	// with probe.SkipAccesses.
	Ordinal uint64
	// Violation is the observed inconsistency that opened the window.
	Violation partition.Violation
}

// GuidedPoints runs the two clean passes of consistency-guided mode:
// a learn pass inferring which cross-node invariants hold on the final
// state of a fault-free run, then a monitor pass over the identical
// run watching those invariants and binding each kind's first violation
// to the next probe access. At most one point per invariant kind comes
// back, deduplicated by ordinal; an empty result means no invariant
// survived learning (or none was violated in a clean run) and the
// caller should fall back to a standard partition campaign.
func (t *Tester) GuidedPoints() []GuidedPoint {
	matcher := t.matcher()
	deadline := t.RunDeadline()
	hosts := t.Runner.Hosts()

	// Learn pass: which invariants hold at the end of a clean run?
	learn := partition.NewTracker(hosts, matcher, t.Analysis)
	logs := dslog.NewRoot()
	learn.Attach(logs)
	pb := probe.New()
	pb.Lean = true
	sysRun := t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: logs})
	sysRun.Engine().MaxSteps = t.MaxSteps
	cluster.Drive(sysRun, deadline)
	kinds := learn.Learn()
	if len(kinds) == 0 {
		return nil
	}

	// Monitor pass: the same run again, violations bound to accesses.
	mon := partition.NewTracker(hosts, matcher, t.Analysis)
	mon.Watch(kinds...)
	var pending []partition.Violation
	mon.OnViolation = func(v partition.Violation) { pending = append(pending, v) }
	logs = dslog.NewRoot()
	mon.Attach(logs)

	var out []GuidedPoint
	seen := map[uint64]bool{}
	var ordinal uint64
	pb = probe.New()
	pb.OnAccess = func(a probe.Access) {
		if len(pending) > 0 {
			if !seen[ordinal] {
				seen[ordinal] = true
				out = append(out, GuidedPoint{Dyn: a.Dyn(), Ordinal: ordinal, Violation: pending[0]})
			}
			pending = pending[:0]
		}
		ordinal++
	}
	sysRun = t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: logs})
	sysRun.Engine().MaxSteps = t.MaxSteps
	cluster.Drive(sysRun, deadline)
	return out
}

// GuidedCampaign tests every guided point: one full run each (guided
// ordinals index the whole access stream, not a point's first hit, so
// snapshot forks do not apply), fanned out over the worker pool like
// Campaign, recorded to the same triage recorder.
func (t *Tester) GuidedCampaign(points []GuidedPoint) []Report {
	bugs := 0 // guarded by the campaign completion lock (Annotate contract)
	reports := campaign.Run(len(points), campaign.Options[Report]{
		Workers: t.Workers,
		Recover: func(i int, v any) Report {
			gp := points[i]
			scenario := crashpoint.Injection{
				Scenario: gp.Dyn.Scenario, Partition: true, Guided: true, Ordinal: gp.Ordinal,
			}.String()
			rep := t.panicReport(i, gp.Dyn, scenario, v)
			rep.Guided = true
			rep.GuidedOrdinal = gp.Ordinal
			return rep
		},
		Checkpoint: t.Config.Checkpoint(),
		Sink:       t.Sink,
		Scope:      t.scope(),
		Annotate: func(ev *obs.Event, i int, rep Report) {
			if rep.Outcome.IsBug() {
				bugs++
			}
			ev.Bugs = bugs
			ev.Crash = fmt.Sprintf("%s@%d", rep.Dyn.Key(), rep.GuidedOrdinal)
			ev.Outcome = rep.Outcome.String()
			ev.Sim = rep.Duration
			ev.Target = string(rep.Target)
			if rep.Injected != nil {
				ev.Fault = rep.Injected.Kind.String()
			}
		},
	}, func(i int) Report { return t.guidedPoint(i, points[i]) })
	t.record(reports)
	return reports
}

// TestGuidedPoint re-executes one consistency-guided injection outside a
// campaign — the triage confirmation path. The violation that originally
// opened the window is not persisted in the record, so target resolution
// relies on the stash alone.
func (t *Tester) TestGuidedPoint(gp GuidedPoint) Report { return t.guidedPoint(-1, gp) }

// guidedPoint runs one consistency-guided injection: a full run with
// the live stash, fast-forwarded by dispatch ordinal to the access
// right after the recorded violation, where the partition is injected.
// Target resolution tries the stash on the access values first and
// falls back to the violation's own parties, so a window observed on a
// value the stash cannot resolve still gets its cut.
func (t *Tester) guidedPoint(run int, gp GuidedPoint) Report {
	timeoutFactor := t.timeoutFactor()
	deadline := t.RunDeadline()

	pb := probe.New()
	pb.SkipAccesses = gp.Ordinal
	logs := dslog.NewRoot()
	matcher := t.matcher()
	st := stash.New(t.Runner.Hosts(), matcher, t.Analysis)
	st.Attach(logs)
	sysRun := t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: logs})
	e := sysRun.Engine()
	e.MaxSteps = t.MaxSteps

	rep := Report{Dyn: gp.Dyn, Outcome: NotHit, Guided: true, GuidedOrdinal: gp.Ordinal}
	fired := false
	resolvedMiss := false
	pb.OnAccess = func(a probe.Access) {
		// The first delivered access IS the guided site: SkipAccesses
		// fast-forwarded over everything before the violation.
		fired = true
		pb.OnAccess = nil
		target, ok := t.chooseTarget(e, st, a)
		if !ok {
			target, ok = t.violationTarget(e, gp.Violation)
		}
		if !ok {
			resolvedMiss = true
			return
		}
		rep.Target = target
		t.inject(sysRun, &rep, gp.Dyn, target)
	}

	res := cluster.Drive(sysRun, deadline)
	rep.Duration = res.End
	rep.Witnesses = sysRun.Witnesses()
	rep.Reason = sysRun.FailureReason()
	rep.NewExceptions = t.newUnhandled(e)
	rep.Outcome = t.classify(fired, resolvedMiss, sysRun, res, rep.NewExceptions, timeoutFactor)
	return rep
}

// violationTarget picks the injection victim from the violation's own
// parties when the stash cannot resolve the access values: the
// disagreeing side first (the CoFI move — cut the node whose state is
// inconsistent), then the claimed owner, then the observer.
func (t *Tester) violationTarget(e *sim.Engine, v partition.Violation) (sim.NodeID, bool) {
	for _, id := range []sim.NodeID{v.Other, v.Owner, v.Observer} {
		if id == "" {
			continue
		}
		if n := e.Node(id); n != nil && n.Alive() {
			return id, true
		}
	}
	return "", false
}
