// Snapshot-forked injection: run the workload once per (system, seed,
// scale), record where every dynamic crash point first fires, and fork
// each injection run from that recording instead of replaying the whole
// observation pipeline from t=0.
//
// The reference pass captures, at the moment each point first fires:
//
//   - the access's dispatch ordinal — how many probe accesses were
//     delivered before it (probe.SkipAccesses fast-forwards a fork to
//     exactly that access without rendering a single call stack);
//   - a copy-on-write stash.View — the value→node state the live stash
//     held at that instant, frozen in O(1) (metainfo.Graph.Snapshot);
//   - a sim.Fingerprint — the replay fence that proves the fork reached
//     the same engine state before any fault is injected.
//
// The reference pass is either the plan's own fault-free run
// (BuildSnapshotPlan) or a Recording of that same run which the offline
// analysis already drove (SnapshotPlanFrom, record.go).
//
// Systems that implement cluster.Cloneable schedule every mid-run timer
// through the keyed API, so their engines hold no closures and
// Engine.Clone can deep-copy the whole run in O(state). A capture pass —
// one lean replay per plan — steps to a bounded ladder of event-count
// boundaries (one rung just before each crash point's hit, thinned to
// maxClones; boundary 0 is the freshly started run) and clones a
// template at each. An injection run then clones the nearest rung at or
// below its point and lean-replays only the short gap up to the hit, so
// its cost is O(gap), independent of how much timeline precedes the
// rung.
//
// Each clone fork verifies the recorded fingerprint at the hit before
// injecting, so "the clone is the prefix" is a checked invariant, not an
// assumption: on a mismatch the fork is discarded, counted in
// crashtuner_clone_fallbacks_total, and the point takes the full run.
// So does every point no rung serves: a plan that does not match, a
// system that is not Cloneable, or a point that fires inside Start.
//
// Points the reference pass never saw firing cannot fire in any
// injection run either (the pre-injection prefix is deterministic), so
// their NotHit reports are synthesized outright from the reference run —
// no engine is even constructed.
package trigger

import (
	"sort"
	"time"

	"repro/internal/dslog"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/cluster"
)

// Process-wide snapshot instruments on the default registry.
var (
	snapshotSynth = obs.Default.Counter("crashtuner_snapshot_synthesized_total")
	// cloneForks counts injection runs served by resuming an Engine.Clone
	// of a captured rung; cloneFallbacks counts runs that wanted the clone
	// path but fell back to the full run (fence mismatch, or a system
	// whose CloneRun produced an uncopyable engine state).
	cloneForks     = obs.Default.Counter("crashtuner_clone_forks_total")
	cloneFallbacks = obs.Default.Counter("crashtuner_clone_fallbacks_total")
)

// targetResolver answers the crash-point stash query (get_node_by_id,
// Fig. 7): the live *stash.Stash in a full run, a frozen *stash.View in
// a snapshot fork.
type targetResolver interface {
	QueryAny(values []string) (sim.NodeID, bool)
}

// pointSnapshot is the capture taken at a dynamic point's first hit
// during the reference pass.
type pointSnapshot struct {
	// ordinal is the dispatch ordinal of the hit: the number of probe
	// accesses delivered before it. A fork sets probe.SkipAccesses to
	// this value, so the first access its hook sees *is* the hit.
	ordinal uint64
	// at is the engine clock at the hit; logSeq the log cursor. Both are
	// diagnostics (reports, plan dumps) — the fork keys on ordinal alone.
	at     sim.Time
	logSeq uint64
	// fp fences the fork: the fork's engine must fingerprint identically
	// at the hit, or the fork is discarded.
	fp sim.Fingerprint
	// view is the stash's value→node state at the hit.
	view *stash.View
}

// SnapshotPlan is the product of one reference pass: per-point captures
// plus the reference run's outcome for NotHit synthesis. A plan is
// immutable once built and safe for concurrent use by campaign workers.
//
// The plan depends only on the fault-free run prefix, so one plan serves
// every campaign over the same (system, seed, scale, deadline, step
// budget) — the plain test campaign, the recovery campaign, and the
// RandomTarget ablation alike: those knobs only change what happens
// *after* the injection, and the plan captures nothing after it.
type SnapshotPlan struct {
	system   string
	seed     int64
	scale    int
	deadline sim.Time
	maxSteps uint64

	points map[probe.DynPoint]pointSnapshot
	// recorded reports that the point table and the reference outcome
	// came from a Recording rather than the plan's own reference pass.
	recorded bool

	// rungs is the clone ladder: engine+model templates captured at
	// ascending event-count boundaries by the capture pass. Empty when the
	// system is not Cloneable. Templates are immutable once built; forks
	// re-clone them concurrently.
	rungs []cloneRung

	// Reference-run results, for synthesizing NotHit reports.
	refEnd        sim.Time
	refExhausted  bool
	refReason     string
	refWitnesses  []string
	refExceptions []sim.Exception
}

// cloneRung is one captured clone template: the run frozen right after
// `handled` events were dispatched, with `access` probe accesses
// delivered by then.
type cloneRung struct {
	handled uint64
	access  uint64
	run     cluster.Run
}

// Points returns how many dynamic points the reference pass captured.
func (p *SnapshotPlan) Points() int { return len(p.points) }

// Rungs returns how many clone templates the capture pass retained; zero
// means every hit point takes the full run.
func (p *SnapshotPlan) Rungs() int { return len(p.rungs) }

// rungFor returns the highest rung at or below the point's hit — the
// fork resumes there and lean-replays the remaining gap. ok=false means
// no rung precedes the hit (the point fires inside Start, or no rungs
// were captured) and the point takes the full run.
func (p *SnapshotPlan) rungFor(ps pointSnapshot) (cloneRung, bool) {
	if ps.fp.Handled == 0 {
		return cloneRung{}, false
	}
	boundary := ps.fp.Handled - 1 // resume before the hit's own event
	best := -1
	for i, r := range p.rungs {
		if r.handled <= boundary {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		return cloneRung{}, false
	}
	return p.rungs[best], true
}

// ReferenceEnd returns the fault-free reference run's end time.
func (p *SnapshotPlan) ReferenceEnd() sim.Time { return p.refEnd }

// Hit reports whether the reference pass saw d fire.
func (p *SnapshotPlan) Hit(d probe.DynPoint) bool {
	_, ok := p.points[d]
	return ok
}

// compatible reports whether the plan's reference pass was recorded
// under exactly this Tester's run parameters. A plan built elsewhere
// (different seed, scale, deadline or step budget — any of which change
// the run prefix or its truncation) is silently ignored and the Tester
// falls back to full runs.
func (p *SnapshotPlan) compatible(t *Tester) bool {
	return p.system == t.Runner.Name() &&
		p.seed == t.Seed &&
		p.scale == t.Scale &&
		p.deadline == t.RunDeadline() &&
		p.maxSteps == t.MaxSteps
}

// BuildSnapshotPlan performs the reference pass: one fault-free run with
// the full observation pipeline attached — exactly the prefix every
// injection run replays — capturing each dynamic point at its first hit.
// The pass is reported as a pipeline-level "snapshot" phase span when a
// sink is configured.
func (t *Tester) BuildSnapshotPlan() *SnapshotPlan {
	start := time.Now()
	pb := probe.New()
	logs := dslog.NewRoot()
	matcher := t.matcher()
	st := stash.New(t.Runner.Hosts(), matcher, t.Analysis)
	st.Attach(logs)
	sysRun := t.Runner.NewRun(cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: logs})
	e := sysRun.Engine()
	e.MaxSteps = t.MaxSteps

	p := t.newPlan()
	var ordinal uint64
	pb.OnAccess = func(a probe.Access) {
		d := a.Dyn()
		if _, seen := p.points[d]; !seen {
			p.points[d] = pointSnapshot{
				ordinal: ordinal,
				at:      e.Now(),
				logSeq:  logs.Seq(),
				fp:      e.Fingerprint(),
				view:    st.Snapshot(),
			}
		}
		ordinal++
	}
	res := cluster.Drive(sysRun, p.deadline)
	p.refEnd = res.End
	p.refExhausted = res.Exhausted
	p.refReason = sysRun.FailureReason()
	p.refWitnesses = sysRun.Witnesses()
	p.refExceptions = e.Exceptions()
	t.emitPhase(-1, "snapshot", time.Since(start), res.End)

	start = time.Now()
	t.captureClones(p)
	t.emitPhase(-1, "clone-capture", time.Since(start), 0)
	return p
}

// newPlan returns an empty plan keyed on t's run parameters.
func (t *Tester) newPlan() *SnapshotPlan {
	return &SnapshotPlan{
		system:   t.Runner.Name(),
		seed:     t.Seed,
		scale:    t.Scale,
		deadline: t.RunDeadline(),
		maxSteps: t.MaxSteps,
		points:   make(map[probe.DynPoint]pointSnapshot),
	}
}

// maxClones bounds the rung ladder: more rungs mean shorter replay gaps
// per fork but more retained engine copies.
const maxClones = 16

// captureClones runs the capture pass: one more lean replay of the
// fault-free prefix, paused at a ladder of event-count boundaries — one
// just before each point's first hit, thinned to maxClones rungs — and
// cloned at each pause. Systems that do not implement cluster.Cloneable
// (or whose engine refuses to clone, e.g. a closure timer slipped in)
// simply get no rungs, and their hit points take the full run.
func (t *Tester) captureClones(p *SnapshotPlan) {
	seen := make(map[uint64]bool, len(p.points))
	bounds := make([]uint64, 0, len(p.points))
	for _, ps := range p.points {
		if ps.fp.Handled == 0 {
			// The point fires inside Start, before any rung can exist.
			continue
		}
		b := ps.fp.Handled - 1
		if !seen[b] {
			seen[b] = true
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	if len(bounds) > maxClones {
		// Thin to maxClones rungs, evenly spread over the sorted boundaries
		// and always keeping the first and last; points between rungs
		// replay the gap from the rung below.
		thin := bounds[:0]
		prev := -1
		for i := 0; i < maxClones; i++ {
			k := i * (len(bounds) - 1) / (maxClones - 1)
			if k != prev {
				thin = append(thin, bounds[k])
				prev = k
			}
		}
		bounds = thin
	}

	pb := probe.New()
	pb.Lean = true
	var access uint64
	pb.OnAccess = func(probe.Access) { access++ }
	cfg := cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: dslog.Discard()}
	sysRun := t.Runner.NewRun(cfg)
	if _, ok := sysRun.(cluster.Cloneable); !ok {
		return
	}
	e := sysRun.Engine()
	e.OnStep(func(sim.Time) {
		if sysRun.Status() != cluster.Running {
			e.Stop()
		}
	})
	sysRun.Start()
	for _, b := range bounds {
		// Boundary 0 is the freshly started run: clone it as is, since
		// MaxSteps = 0 means "default", not "pause immediately".
		if b > 0 {
			e.MaxSteps = b
			if res := e.Run(p.deadline); !res.Exhausted {
				// The run ended before this boundary — every remaining
				// rung lies beyond the reference run's end too. (Points
				// were captured mid-dispatch, so their pre-hit boundaries
				// are always reachable; this covers deadline truncation
				// and defensive drift.)
				break
			}
		}
		tmpl, ok := cluster.Clone(sysRun, cfg)
		if !ok {
			break
		}
		p.rungs = append(p.rungs, cloneRung{handled: b, access: access, run: tmpl})
	}
}

// runPoint dispatches one campaign job. Through a snapshot plan that
// matches the Tester's parameters, a point the reference pass never saw
// firing is synthesized and a point with a rung at or below its hit is a
// clone fork. Everything else is the full run: no plan, a mismatched
// plan, no rung for the point, or a tripped fingerprint fence.
func (t *Tester) runPoint(run int, d probe.DynPoint) Report {
	if p := t.Snapshots; p != nil && p.compatible(t) {
		ps, hit := p.points[d]
		if !hit {
			return t.synthesizeNotHit(run, p, d)
		}
		if rung, ok := p.rungFor(ps); ok {
			if rep, ok := t.forkClone(run, d, ps, rung); ok {
				return rep
			}
		}
	}
	return t.testPoint(run, d)
}

// synthesizeNotHit builds the report of a point the reference pass never
// saw firing. The pre-injection prefix is deterministic, so a full run
// armed at such a point is the reference run verbatim: same end time,
// witnesses, failure reason and exceptions — there is nothing to
// simulate. The three per-run phase spans are still emitted so traces
// keep one setup→drive→oracle triple per run.
func (t *Tester) synthesizeNotHit(run int, p *SnapshotPlan, d probe.DynPoint) Report {
	phaseStart := time.Now()
	rep := Report{
		Dyn:           d,
		Outcome:       NotHit,
		Duration:      p.refEnd,
		Witnesses:     p.refWitnesses,
		Reason:        p.refReason,
		NewExceptions: NewUnhandledSignatures(t.Baseline, p.refExceptions),
	}
	if p.refExhausted {
		// Mirrors classify: an exhausted step budget is a harness
		// problem whether or not the injection fired.
		rep.Outcome = HarnessError
	}
	snapshotSynth.Inc()
	t.emitPhase(run, "setup", time.Since(phaseStart), 0)
	t.emitPhase(run, "drive", 0, p.refEnd)
	t.emitPhase(run, "oracle", 0, 0)
	return rep
}

// forkClone runs one injection by resuming an Engine.Clone of the rung:
// the system's deep-copied model state picks up mid-flight and only the
// gap between the rung and the recorded hit is replayed (SkipAccesses
// counts from the rung's access cursor, not from zero). At the hit the
// fingerprint fence must match the reference capture; target resolution
// then reads the frozen view, and everything from the injection on is
// the full-run path. ok=false means the clone could not be taken or the
// fence tripped; the caller falls back to the full run.
func (t *Tester) forkClone(run int, d probe.DynPoint, ps pointSnapshot, rung cloneRung) (Report, bool) {
	phaseStart := time.Now()
	pb := probe.New()
	pb.Lean = true
	pb.SkipAccesses = ps.ordinal - rung.access
	sysRun, ok := cluster.Clone(rung.run, cluster.Config{Seed: t.Seed, Scale: t.Scale, Probe: pb, Logs: dslog.Discard()})
	if !ok {
		cloneFallbacks.Inc()
		return Report{}, false
	}
	e := sysRun.Engine()
	e.MaxSteps = t.MaxSteps

	rep := Report{Dyn: d, Outcome: NotHit}
	fired := false
	resolvedMiss := false
	aligned := true
	pb.OnAccess = func(a probe.Access) {
		// The first delivered access is the armed hit: SkipAccesses
		// fast-forwarded over every access before it. Nothing further is
		// armed, so unhook to skip post-hit dispatch work.
		fired = true
		pb.OnAccess = nil
		if a.Point != d.Point || a.Scenario != d.Scenario || e.Fingerprint() != ps.fp {
			// The fork diverged from the reference pass. Abandon it; the
			// point takes the full run.
			aligned = false
			e.Stop()
			return
		}
		target, ok := t.chooseTarget(e, ps.view, a)
		if !ok {
			resolvedMiss = true
			return
		}
		rep.Target = target
		t.inject(sysRun, &rep, d, target)
	}
	t.emitPhase(run, "setup", time.Since(phaseStart), 0)

	phaseStart = time.Now()
	res := cluster.DriveResume(sysRun, t.RunDeadline())
	if !aligned {
		cloneFallbacks.Inc()
		return Report{}, false
	}
	t.emitPhase(run, "drive", time.Since(phaseStart), res.End)

	phaseStart = time.Now()
	rep.Duration = res.End
	rep.Witnesses = sysRun.Witnesses()
	rep.Reason = sysRun.FailureReason()
	rep.NewExceptions = t.newUnhandled(e)
	rep.Outcome = t.classify(fired, resolvedMiss, sysRun, res, rep.NewExceptions, t.timeoutFactor())
	t.emitPhase(run, "oracle", time.Since(phaseStart), 0)
	cloneForks.Inc()
	return rep, true
}
