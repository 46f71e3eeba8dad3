// Package trigger implements CrashTuner's fault-injection testing phase
// (§3.2): for each dynamic crash point, one fresh run of the system under
// test with exactly one injection. When the armed point is hit, the
// control center queries the online stash with the accessed runtime
// meta-info value to find the node that owns it, then shuts that node
// down (pre-read points — the synchronous graceful shutdown plays the
// role of the instrumented "shutdown RPC followed by a wait") or crashes
// it (post-write points).
//
// A bug is reported in three cases (§3.2.2): job failures, system hangs,
// and uncommon exceptions in the logs — exception signatures never seen
// in fault-free baseline runs. Runs that finish but exceed the timeout
// threshold (4× the fault-free duration, §4.1.3) are reported separately
// as timeout issues.
package trigger

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/fleet"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
)

// Outcome classifies one injection run.
type Outcome int

// Outcomes, in increasing severity for reporting.
const (
	NotHit               Outcome = iota // the armed point never executed
	Unresolved                          // hit, but the value mapped to no node
	OK                                  // injected, system recovered correctly
	TimeoutIssue                        // finished, but > Timeout× baseline
	UncommonException                   // new unhandled exception signature
	Hang                                // workload never finished
	JobFailure                          // workload failed
	HarnessError                        // the harness, not the system, misbehaved
	RejoinNoWork                        // restarted node rejoined but got no work
	NeverRejoined                       // restarted node never rejoined the cluster
	DuplicateIncarnation                // two incarnations of one node online at once
	StaleRead                           // cluster accepted/rejected state from a formerly-isolated node
	SplitBrain                          // work owned on both sides of an open cut at once
	NeverHeals                          // cut healed but an alive node never reconnected
)

// MaxOutcome is the highest defined Outcome, for exhaustive iteration.
const MaxOutcome = NeverHeals

var outcomeNames = [...]string{
	"not-hit", "unresolved", "ok", "timeout-issue",
	"uncommon-exception", "hang", "job-failure", "harness-error",
	"rejoin-no-work", "never-rejoined", "duplicate-incarnation",
	"stale-read", "split-brain", "never-heals",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// IsBug reports whether the outcome is one of the three §3.2.2 bug
// conditions or one of the recovery-oracle conditions. HarnessError is
// deliberately not a bug: it flags a defect in the harness or the model
// (a panic, an exhausted step budget, a stalled worker), so it must
// surface in summaries without polluting the bug counts.
func (o Outcome) IsBug() bool {
	switch o {
	case JobFailure, Hang, UncommonException,
		RejoinNoWork, NeverRejoined, DuplicateIncarnation,
		StaleRead, SplitBrain, NeverHeals:
		return true
	}
	return false
}

// IsRecoveryBug reports whether the outcome is one of the recovery
// oracles that only a restart campaign can produce.
func (o Outcome) IsRecoveryBug() bool {
	return o == RejoinNoWork || o == NeverRejoined || o == DuplicateIncarnation
}

// IsPartitionBug reports whether the outcome is one of the partition
// oracles that only a network-cut campaign can produce.
func (o Outcome) IsPartitionBug() bool {
	return o == StaleRead || o == SplitBrain || o == NeverHeals
}

// Baseline captures fault-free behaviour for the oracle.
type Baseline struct {
	Duration sim.Time
	Status   cluster.Status
	// Exceptions is the fault-free census, keyed by the normalized form
	// (triage.NormalizeException) of every signature seen without
	// faults, so the oracle's "never seen in baseline" test is stable
	// across seeds and scales.
	Exceptions map[string]bool
	Runs       int
}

// Report is the result of testing one dynamic crash point.
type Report struct {
	Dyn      probe.DynPoint
	Outcome  Outcome
	Target   sim.NodeID // node chosen by the stash query
	Injected *sim.FaultRecord
	Duration sim.Time
	// NewExceptions are unhandled signatures absent from the baseline.
	NewExceptions []string
	// Witnesses are seeded-bug IDs whose flawed paths fired (attribution
	// only; the oracle does not consult them).
	Witnesses []string
	// Restarted lists nodes the recovery mode restarted during this run.
	Restarted []sim.NodeID
	// Partitioned reports that the injection opened a network cut, and
	// Healed that the cut was closed before the run ended.
	Partitioned bool
	Healed      bool
	// Guided marks a consistency-guided injection (the cut fired at the
	// recorded access ordinal GuidedOrdinal, not at the point's first
	// hit).
	Guided        bool
	GuidedOrdinal uint64
	// Reason carries the workload failure reason, if any.
	Reason string
}

// RecoveryOptions configures recovery-phase injection: after the primary
// fault, the victim is restarted and — optionally — hit again while it
// is recovering. The second fault is the interesting one: the paper's
// crash-recovery bugs live in the window where a node is back but not
// yet re-integrated.
type RecoveryOptions struct {
	// RestartDelay is how long after the injected fault the victim is
	// restarted. Zero means 2 s of simulated time — long enough for the
	// cluster to notice the departure, short enough to land inside the
	// workload.
	RestartDelay sim.Time
	// SecondFaultDelay, when positive, injects a second fault this long
	// after the restart, inside the recovery window.
	SecondFaultDelay sim.Time
	// SecondFaultKind selects the second fault: sim.FaultCrash (the
	// default) or sim.FaultShutdown.
	SecondFaultKind sim.FaultKind
}

// ParseSecondFaultKind parses a second-fault name for CLI flags: "crash"
// or "shutdown", the two kinds SecondFaultKind accepts.
func ParseSecondFaultKind(s string) (sim.FaultKind, bool) {
	k, ok := sim.ParseFaultKind(s)
	if !ok || (k != sim.FaultCrash && k != sim.FaultShutdown) {
		return sim.FaultCrash, false
	}
	return k, true
}

func (rc *RecoveryOptions) restartDelay() sim.Time {
	if rc.RestartDelay > 0 {
		return rc.RestartDelay
	}
	return 2 * sim.Second
}

// Tester drives the injection campaign for one system.
type Tester struct {
	// Config carries the shared campaign-execution knobs (worker pool,
	// checkpointing, observability sink); see campaign.Config.
	campaign.Config

	Runner   cluster.Runner
	Analysis *metainfo.Analysis
	Matcher  *logparse.Matcher
	Baseline Baseline
	// Seed/Scale configure the test runs.
	Seed  int64
	Scale int
	// TimeoutFactor is the timeout-issue threshold (default 4).
	TimeoutFactor int
	// DeadlineFactor bounds each run at DeadlineFactor× baseline
	// duration; beyond it the run counts as hung (default 20, well above
	// the timeout-issue threshold so late-but-finishing runs are
	// observed finishing, as in §4.1.3).
	DeadlineFactor int
	// RandomTarget replaces the stash query with a random alive node
	// (the §3.2.2 alternative; used by the ablation experiment).
	RandomTarget bool
	// Recovery, when non-nil, switches the campaign to recovery-phase
	// injection: the victim is restarted after the fault (and optionally
	// faulted again during recovery), and the oracle is extended with
	// the recovery conditions (NeverRejoined, RejoinNoWork,
	// DuplicateIncarnation).
	Recovery *RecoveryOptions
	// Partition, when non-nil, switches the injected fault from a crash
	// or shutdown to a network cut isolating the target, and extends the
	// oracle with the partition conditions (StaleRead, SplitBrain,
	// NeverHeals). Combined with Recovery, the victim is also killed and
	// restarted inside the cut — partition-aware recovery. See
	// PartitionOptions.
	Partition *PartitionOptions
	// MaxSteps bounds each run's event count; zero means
	// sim.DefaultMaxSteps. A run that exhausts the budget is reported as
	// HarnessError (a livelocked model), not as a system bug.
	MaxSteps uint64
	// Snapshots, when non-nil and built under matching parameters (see
	// SnapshotPlan.compatible), forks each injection run from the
	// recorded reference pass instead of replaying the full observation
	// pipeline from t=0, and synthesizes never-hit points outright. Runs
	// stay byte-identical — a fingerprint fence falls back to the full
	// path on any divergence. See snapshot.go.
	Snapshots *SnapshotPlan
}

// matcher returns the configured Matcher, or the one the runner's program
// carries when none was set.
func (t *Tester) matcher() *logparse.Matcher {
	if t.Matcher != nil {
		return t.Matcher
	}
	return logparse.MatcherFor(t.Runner.Program())
}

// timeoutFactor returns the §4.1.3 timeout-issue threshold factor.
func (t *Tester) timeoutFactor() int {
	if t.TimeoutFactor <= 0 {
		return 4
	}
	return t.TimeoutFactor
}

// RunDeadline returns the per-run simulated-time deadline:
// DeadlineFactor× the baseline duration, floored at 30 s. Exported
// because snapshot plans are keyed on it (core caches plans per
// system/seed/scale/deadline/step-budget).
func (t *Tester) RunDeadline() sim.Time {
	deadlineFactor := t.DeadlineFactor
	if deadlineFactor <= 0 {
		deadlineFactor = 20
	}
	deadline := t.Baseline.Duration * sim.Time(deadlineFactor)
	if deadline < 30*sim.Second {
		deadline = 30 * sim.Second
	}
	return deadline
}

// scope labels the Tester's events: the system under test plus the
// campaign kind ("test"; "recovery" when the recovery oracle is on;
// "partition", "partition-recovery" or "partition-guided" for the
// network-cut fault family).
func (t *Tester) scope() obs.Scope {
	sc := obs.Scope{Campaign: "test"}
	switch {
	case t.Partition != nil && t.Partition.Guided:
		sc.Campaign = "partition-guided"
	case t.Partition != nil && t.Recovery != nil:
		sc.Campaign = "partition-recovery"
	case t.Partition != nil:
		sc.Campaign = "partition"
	case t.Recovery != nil:
		sc.Campaign = "recovery"
	}
	if t.Runner != nil {
		sc.System = t.Runner.Name()
	}
	return sc
}

// MeasureBaseline performs fault-free runs on seeds seed, seed+1, …,
// seed+runs-1 and unions their exception signatures; the longest
// duration becomes the reference. The seed reaches a fault-free run only
// through the engine's random stream, so once a run has drawn nothing
// from it (Engine.Draws), every later seed would replay that run
// exactly, and the census stops there. Runs still reports runs. The
// oracle reads no log record, so the runs log to a discarding root.
func MeasureBaseline(r cluster.Runner, seed int64, scale, runs int, deadline sim.Time) Baseline {
	if runs < 1 {
		runs = 1
	}
	if deadline <= 0 {
		deadline = sim.Hour
	}
	b := newBaseline(runs)
	for i := 0; i < runs; i++ {
		run := r.NewRun(cluster.Config{Seed: seed + int64(i), Scale: scale, Probe: probe.New(), Logs: dslog.Discard()})
		res := cluster.Drive(run, deadline)
		b.add(res.End, run.Status(), run.Engine().Exceptions())
		if run.Engine().Draws() == 0 {
			break
		}
	}
	return b
}

func newBaseline(runs int) Baseline {
	return Baseline{Exceptions: make(map[string]bool), Runs: runs, Status: cluster.Succeeded}
}

// add folds one fault-free run's end time, status and exceptions into
// the census.
func (b *Baseline) add(end sim.Time, status cluster.Status, exceptions []sim.Exception) {
	if end > b.Duration {
		b.Duration = end
	}
	for _, ex := range exceptions {
		b.Exceptions[triage.NormalizeException(ex.Signature)] = true
	}
	if status != cluster.Succeeded {
		b.Status = status
	}
}

// TestPoint runs the system once with an injection armed at d.
func (t *Tester) TestPoint(d probe.DynPoint) Report { return t.runPoint(-1, d) }

// emitPhase reports one finished phase of run (or of the pipeline, when
// run < 0) to the Tester's sink.
func (t *Tester) emitPhase(run int, name string, wall time.Duration, simT sim.Time) {
	if t.Sink == nil {
		return
	}
	t.Sink.Emit(obs.Event{Kind: obs.PhaseEnd, Scope: t.scope(), Run: run, Phase: name, Wall: wall, Sim: simT})
}

// testPoint is TestPoint inside campaign job `run`: the same single
// injection, plus nested phase spans (setup → drive → oracle) on the
// Tester's sink so traces show where each run's wall-clock went.
func (t *Tester) testPoint(run int, d probe.DynPoint) Report {
	phaseStart := time.Now()
	timeoutFactor := t.timeoutFactor()
	deadline := t.RunDeadline()

	pb := probe.New()
	logs := dslog.NewRoot()
	matcher := t.matcher()
	st := stash.New(t.Runner.Hosts(), matcher, t.Analysis)
	st.Attach(logs)
	sysRun := t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: logs})
	e := sysRun.Engine()
	e.MaxSteps = t.MaxSteps

	rep := Report{Dyn: d, Outcome: NotHit}
	fired := false
	resolvedMiss := false
	pb.OnAccess = func(a probe.Access) {
		if fired || a.Dyn() != d {
			return
		}
		fired = true
		target, ok := t.chooseTarget(e, st, a)
		if !ok {
			resolvedMiss = true
			return
		}
		rep.Target = target
		t.inject(sysRun, &rep, d, target)
	}
	t.emitPhase(run, "setup", time.Since(phaseStart), 0)

	phaseStart = time.Now()
	res := cluster.Drive(sysRun, deadline)
	t.emitPhase(run, "drive", time.Since(phaseStart), res.End)

	phaseStart = time.Now()
	rep.Duration = res.End
	rep.Witnesses = sysRun.Witnesses()
	rep.Reason = sysRun.FailureReason()
	rep.NewExceptions = t.newUnhandled(e)
	rep.Outcome = t.classify(fired, resolvedMiss, sysRun, res, rep.NewExceptions, timeoutFactor)
	t.emitPhase(run, "oracle", time.Since(phaseStart), 0)
	return rep
}

// inject performs the armed single injection on target — the crash or
// synchronous shutdown of the paper's campaigns, or, in partition mode,
// a network cut isolating the target (optionally followed by the
// recovery-phase kill/restart INSIDE the cut, and by a scheduled heal).
// Shared by the full-run path (testPoint), the fork path (forkClone)
// and the guided path, so the fault semantics cannot drift between
// them.
func (t *Tester) inject(sysRun cluster.Run, rep *Report, d probe.DynPoint, target sim.NodeID) {
	e := sysRun.Engine()
	if po := t.Partition; po != nil {
		if cluster.Partition(sysRun, []sim.NodeID{target}, po.Mode, po.delay()) {
			rep.Partitioned = true
			if f := lastFault(e); f != nil {
				rep.Injected = f
			}
		}
		if t.Recovery != nil {
			// Partition-aware recovery: the victim also dies inside the
			// cut and restarts into it, exercising rejoin-under-partition.
			if d.Scenario == crashpoint.PreRead {
				e.Shutdown(target)
			} else {
				e.Crash(target)
			}
			t.scheduleRestart(sysRun, rep, target)
		}
		t.scheduleHeal(sysRun, rep)
		return
	}
	if d.Scenario == crashpoint.PreRead {
		// Shutdown hooks run synchronously, so by the time the read
		// proceeds the cluster has fully processed the departure.
		e.Shutdown(target)
	} else {
		e.Crash(target)
	}
	if f := lastFault(e); f != nil {
		rep.Injected = f
	}
	if t.Recovery != nil {
		t.scheduleRestart(sysRun, rep, target)
	}
}

// scheduleRestart arms the recovery-phase machinery for one victim: a
// restart after the configured delay, and optionally a second fault
// inside the recovery window. The timers are unbound (not node-bound),
// so they survive the victim's death.
func (t *Tester) scheduleRestart(run cluster.Run, rep *Report, target sim.NodeID) {
	rc := t.Recovery
	e := run.Engine()
	e.After(rc.restartDelay(), func() {
		if !cluster.Restart(run, target) {
			return
		}
		rep.Restarted = append(rep.Restarted, target)
		if rc.SecondFaultDelay <= 0 {
			return
		}
		e.After(rc.SecondFaultDelay, func() {
			if n := e.Node(target); n == nil || !n.Alive() {
				return
			}
			if rc.SecondFaultKind == sim.FaultShutdown {
				e.Shutdown(target)
			} else {
				e.Crash(target)
			}
		})
	})
}

func (t *Tester) chooseTarget(e *sim.Engine, st targetResolver, a probe.Access) (sim.NodeID, bool) {
	if t.RandomTarget {
		alive := e.AliveNodes()
		if len(alive) == 0 {
			return "", false
		}
		return alive[e.Rand().Intn(len(alive))], true
	}
	target, ok := st.QueryAny(a.Values)
	if !ok {
		return "", false
	}
	if n := e.Node(target); n == nil || !n.Alive() {
		return "", false
	}
	return target, true
}

func lastFault(e *sim.Engine) *sim.FaultRecord {
	fs := e.Faults()
	if len(fs) == 0 {
		return nil
	}
	f := fs[len(fs)-1]
	return &f
}

// newUnhandled returns unhandled exception signatures absent from the
// baseline census, sorted.
func (t *Tester) newUnhandled(e *sim.Engine) []string {
	return NewUnhandled(t.Baseline, e)
}

// NewUnhandled returns the unhandled exception signatures of a run that
// never appeared in fault-free baseline runs — the "uncommon exceptions
// in the logs" oracle of §3.2.2. Census membership is decided on
// normalized signatures (so a baseline exception that embeds a port or
// a timestamp still masks its reoccurrence under a different value),
// but the returned strings stay raw: reports and tables show what the
// system actually logged.
func NewUnhandled(b Baseline, e *sim.Engine) []string {
	return NewUnhandledSignatures(b, e.Exceptions())
}

// NewUnhandledSignatures is NewUnhandled over an exception list captured
// earlier — a snapshot plan stores the reference run's exceptions so
// NotHit reports can be synthesized against any tester's baseline.
func NewUnhandledSignatures(b Baseline, exceptions []sim.Exception) []string {
	seen := map[string]bool{}
	var out []string
	for _, ex := range exceptions {
		key := triage.NormalizeException(ex.Signature)
		if ex.Handled || b.Exceptions[key] || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, ex.Signature)
	}
	sort.Strings(out)
	return out
}

func (t *Tester) classify(fired, resolvedMiss bool, run cluster.Run, res sim.RunResult, newEx []string, timeoutFactor int) Outcome {
	if res.Exhausted {
		// The step budget ran out: the model livelocked. That is a
		// harness problem whether or not the injection fired.
		return HarnessError
	}
	if !fired {
		return NotHit
	}
	var o Outcome
	switch {
	case t.Partition != nil:
		o = EvaluatePartition(t.Baseline, run, res, newEx, timeoutFactor, t.Recovery != nil)
	case t.Recovery != nil:
		o = EvaluateRecovery(t.Baseline, run, res, newEx, timeoutFactor)
	default:
		o = Evaluate(t.Baseline, run, res, newEx, timeoutFactor)
	}
	if o == OK && resolvedMiss {
		return Unresolved
	}
	return o
}

// Evaluate applies the §3.2.2 oracle to a finished run: job failure,
// hang, uncommon exception, or a §4.1.3 timeout issue. A run that
// exhausted its step budget is a HarnessError, not a verdict about the
// system.
func Evaluate(b Baseline, run cluster.Run, res sim.RunResult, newEx []string, timeoutFactor int) Outcome {
	if timeoutFactor <= 0 {
		timeoutFactor = 4
	}
	if res.Exhausted {
		return HarnessError
	}
	if run.Status() == cluster.Failed {
		return JobFailure
	}
	if run.Status() == cluster.Running {
		return Hang
	}
	if len(newEx) > 0 {
		return UncommonException
	}
	if b.Duration > 0 && res.End > b.Duration*sim.Time(timeoutFactor) {
		return TimeoutIssue
	}
	return OK
}

// EvaluateRecovery extends the §3.2.2 oracle with the recovery
// conditions of a restart campaign. DuplicateIncarnation is checked
// before the base oracle: a cluster confused by two incarnations of one
// node usually *also* hangs or fails, and the duplicate is the cause,
// not the symptom. The remaining recovery oracles (NeverRejoined,
// RejoinNoWork) only upgrade otherwise-clean runs — a job failure or a
// hang is already the stronger verdict.
func EvaluateRecovery(b Baseline, run cluster.Run, res sim.RunResult, newEx []string, timeoutFactor int) Outcome {
	rr, ok := run.(cluster.RecoveryReporter)
	if !ok {
		return Evaluate(b, run, res, newEx, timeoutFactor)
	}
	if res.Exhausted {
		return HarnessError
	}
	restarted := rr.RestartedNodes()
	for _, id := range restarted {
		if ri, ok := rr.Recovery(id); ok && ri.DuplicateIncarnation {
			return DuplicateIncarnation
		}
	}
	o := Evaluate(b, run, res, newEx, timeoutFactor)
	if o != OK && o != TimeoutIssue {
		return o
	}
	for _, id := range restarted {
		if ri, ok := rr.Recovery(id); ok && !ri.Rejoined {
			return NeverRejoined
		}
	}
	for _, id := range restarted {
		if ri, ok := rr.Recovery(id); ok && !ri.WorkAssigned {
			return RejoinNoWork
		}
	}
	return o
}

// Campaign tests every dynamic point and returns the reports, indexed by
// point position. The points are first rendered as wire jobs (Jobs) and
// then driven through Execute — the same executor a fleet worker runs —
// so the in-process loop and the distributed path cannot drift. Jobs
// fan out across the Tester's worker pool; each run is independent and
// deterministically seeded, so the reports — and everything aggregated
// from them — are byte-identical for any worker count, including the
// sequential Workers=1 special case.
//
// The campaign is panic-isolated: a system model that panics mid-run
// produces a HarnessError report for that point instead of taking the
// whole campaign down. With CheckpointPath set it is also resumable;
// the checkpoint lines hold wire results, the same encoding the fleet
// coordinator's per-shard checkpoints use. With StallTimeout set, a
// run exceeding the wall-clock budget is abandoned and reported as a
// HarnessError naming its point ordinal and scenario.
func (t *Tester) Campaign(points []probe.DynPoint) []Report {
	results := t.RunJobs(t.Jobs(points))
	reports := make([]Report, len(results))
	for i, res := range results {
		reports[i] = ResultReport(res)
	}
	t.recordResults(results)
	return reports
}

// RunJobs is the in-process campaign loop over wire jobs: the worker
// pool drives Execute on each job, in run order, with the Tester's
// panic isolation, stall watchdog, checkpointing and sink wiring.
// Recording is the caller's business (Campaign records; the fleet
// coordinator records centrally).
func (t *Tester) RunJobs(jobs []fleet.Job) []fleet.Result {
	bugs := 0 // guarded by the campaign completion lock (Annotate contract)
	return campaign.Run(len(jobs), campaign.Options[fleet.Result]{
		Workers: t.Workers,
		Recover: func(i int, v any) fleet.Result {
			return ResultOf(jobs[i], t.panicReport(i, DynPointOf(jobs[i]), jobs[i].Scenario, v))
		},
		StallTimeout: t.StallTimeout,
		OnStall: func(i int) fleet.Result {
			return ResultOf(jobs[i], t.stallReport(i, DynPointOf(jobs[i]), jobs[i].Scenario))
		},
		Checkpoint: t.Config.Checkpoint(),
		Sink:       t.Sink,
		Scope:      t.scope(),
		Annotate: func(ev *obs.Event, i int, res fleet.Result) {
			if res.Failing {
				bugs++
			}
			ev.Bugs = bugs
			ev.Crash = DynPointOf(res.Job).Key()
			ev.Outcome = res.Outcome
			ev.Sim = res.Duration
			ev.Target = res.Target
			if res.Fault != nil {
				ev.Fault = res.Fault.Kind
			}
		},
	}, func(i int) fleet.Result { return t.Execute(jobs[i]) })
}

// record delivers the campaign's reports to the configured triage
// recorder. Delivery happens after the campaign, in run order — not
// from the completion-order Annotate hook — so repeat campaigns append
// to a store in identical order, and runs restored from a resumed
// checkpoint are recorded too.
func (t *Tester) record(reports []Report) {
	rec := t.Config.Recorder
	if rec == nil {
		return
	}
	sc := t.scope()
	for i, rep := range reports {
		rec.Record(RunRecordOf(sc.System, sc.Campaign, i, t.Seed, t.Scale, rep))
	}
}

// recordResults is record over wire results: each result flattens
// itself (fleet.Result.RunRecord), which agrees field-for-field with
// RunRecordOf over the report it came from.
func (t *Tester) recordResults(results []fleet.Result) {
	rec := t.Config.Recorder
	if rec == nil {
		return
	}
	for _, res := range results {
		rec.Record(res.RunRecord())
	}
}

// panicReport turns a recovered model panic into a HarnessError report.
// The reason names the campaign ordinal and the injection scenario of
// the panicking run, so a panic surfacing from a many-point campaign is
// attributable without replaying the whole campaign under a debugger.
func (t *Tester) panicReport(run int, d probe.DynPoint, scenario string, v any) Report {
	return Report{
		Dyn:     d,
		Outcome: HarnessError,
		Reason:  fmt.Sprintf("panic in system model (point %d, %s): %v", run, scenario, v),
	}
}

// Summary aggregates a campaign for reporting.
type Summary struct {
	Tested int
	// Bugs counts reports with a bug outcome — the raw run count, kept
	// for paper-table parity. Multiple runs tripping the same underlying
	// defect each count once here.
	Bugs int
	// DistinctBugs deduplicates Bugs through triage signatures (crash
	// point + fault + verdict + normalized exception + bounded stack),
	// collapsing repeat reproductions of one defect — the number a
	// triage pass over the same reports would produce.
	DistinctBugs  int
	TimeoutIssues int
	NotHit        int
	// HarnessErrors counts runs the harness had to abort (model panic,
	// exhausted step budget, stalled worker) — not system bugs, but not
	// silently droppable either.
	HarnessErrors int
	// Restarts counts runs in which at least one node was restarted.
	Restarts int
	// Partitions counts runs that opened a network cut, Heals the subset
	// whose cut closed before the run ended, and Guided the runs whose
	// injection fired at a consistency-violation ordinal.
	Partitions int
	Heals      int
	Guided     int
	ByOutcome  map[Outcome]int
	// WitnessedBugs are the distinct seeded-bug IDs attributed across
	// bug reports, sorted.
	WitnessedBugs []string
}

// Summarize aggregates reports.
func Summarize(reports []Report) Summary {
	s := Summary{ByOutcome: make(map[Outcome]int)}
	wits := map[string]bool{}
	// Bug reports are clustered through the triage index so
	// DistinctBugs matches what a cttriage pass over the same reports
	// would count; system/campaign/seed are constant within one summary,
	// so they contribute nothing to the identities.
	ix := triage.NewIndex()
	for i, r := range reports {
		s.Tested++
		s.ByOutcome[r.Outcome]++
		if len(r.Restarted) > 0 {
			s.Restarts++
		}
		if r.Partitioned {
			s.Partitions++
			if r.Healed {
				s.Heals++
			}
		}
		if r.Guided {
			s.Guided++
		}
		switch {
		case r.Outcome.IsBug():
			s.Bugs++
			ix.Add(triage.FromRunRecord(RunRecordOf("", "", i, 0, 0, r)))
			for _, w := range r.Witnesses {
				wits[w] = true
			}
		case r.Outcome == TimeoutIssue:
			s.TimeoutIssues++
		case r.Outcome == NotHit:
			s.NotHit++
		case r.Outcome == HarnessError:
			s.HarnessErrors++
		}
	}
	s.DistinctBugs = ix.DistinctBugs()
	for w := range wits {
		s.WitnessedBugs = append(s.WitnessedBugs, w)
	}
	sort.Strings(s.WitnessedBugs)
	return s
}
