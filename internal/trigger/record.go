package trigger

import (
	"time"

	"repro/internal/dslog"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/cluster"
)

// Recording is one fault-free run of a (system, seed, scale, deadline),
// driven once with a log root and a recording probe hook, from which
// every consumer that only observes that run reads its share: the
// offline analysis parses its log records, profiler iteration 0 reads
// the dynamic points it hit, the baseline is its outcome, and a snapshot
// plan over the same run takes its point table (SnapshotPlanFrom). The
// hooks of those consumers' own runs only observe, so each would have
// seen exactly this execution. The log records are handed to the caller
// and never kept.
type Recording struct {
	system string
	seed   int64
	scale  int
	hosts  []string

	// hits lists every dynamic point's first hit in hit order; the views
	// are filled in by IndexStash.
	hits []recordedHit

	res        sim.RunResult
	status     cluster.Status
	reason     string
	witnesses  []string
	exceptions []sim.Exception

	// matcher and analysis are what IndexStash's views were built with.
	matcher  *logparse.Matcher
	analysis *metainfo.Analysis
}

type recordedHit struct {
	dyn probe.DynPoint
	ps  pointSnapshot
}

// Record drives the fault-free run of r at (seed, scale) up to deadline
// (default 1h) under the sim's default step budget. It records the
// run's outcome and each dynamic point's first hit: the dispatch
// ordinal, engine clock, log cursor and fingerprint a snapshot plan's
// reference pass captures. It returns the run's log records alongside.
func Record(r cluster.Runner, seed int64, scale int, deadline sim.Time) (*Recording, []dslog.Record) {
	if deadline <= 0 {
		deadline = sim.Hour
	}
	pb := probe.New()
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: pb, Logs: logs})
	e := run.Engine()
	rec := &Recording{system: r.Name(), seed: seed, scale: scale, hosts: r.Hosts()}
	seen := make(map[probe.DynPoint]bool)
	var ordinal uint64
	pb.OnAccess = func(a probe.Access) {
		if d := a.Dyn(); !seen[d] {
			seen[d] = true
			rec.hits = append(rec.hits, recordedHit{dyn: d, ps: pointSnapshot{
				ordinal: ordinal,
				at:      e.Now(),
				logSeq:  logs.Seq(),
				fp:      e.Fingerprint(),
			}})
		}
		ordinal++
	}
	rec.res = cluster.Drive(run, deadline)
	rec.status = run.Status()
	rec.reason = run.FailureReason()
	rec.witnesses = run.Witnesses()
	rec.exceptions = e.Exceptions()
	return rec, logs.Records()
}

// Points returns every dynamic point the run hit, in first-hit order.
func (rec *Recording) Points() []probe.DynPoint {
	out := make([]probe.DynPoint, len(rec.hits))
	for i, h := range rec.hits {
		out[i] = h.dyn
	}
	return out
}

// Baseline returns the run's outcome as MeasureBaseline's one-run census.
func (rec *Recording) Baseline() Baseline {
	b := newBaseline(1)
	b.add(rec.res.End, rec.status, rec.exceptions)
	return b
}

// IndexStash replays the online stash offline over the recorded log
// stream and freezes, at each first hit, the view a live stash held at
// that instant: one built from every record up to the hit's log cursor
// (taps run synchronously on append, so a live stash has processed
// exactly those). matches is matcher's parse of the recorded log
// records (logparse.Matcher.ParseAll), so no record is matched twice;
// unmatched records feed a stash nothing. The views are the reference
// pass's for the Testers that carry this matcher and analysis.
func (rec *Recording) IndexStash(matcher *logparse.Matcher, analysis *metainfo.Analysis, matches []*logparse.Match) {
	st := stash.New(rec.hosts, matcher, analysis)
	next := 0
	for i := range rec.hits {
		h := &rec.hits[i]
		for ; next < len(matches) && matches[next].Record.Seq <= h.ps.logSeq; next++ {
			st.ProcessMatch(matches[next])
		}
		h.ps.view = st.Snapshot()
	}
	rec.matcher, rec.analysis = matcher, analysis
}

// serves reports whether the recording provably is t's reference pass.
// It must be the same system, seed and scale, with views indexed under
// t's matcher and analysis. It must also have ended on its own (the
// workload's status or a drained queue, not the deadline or the step
// budget) at or before t's run deadline, in fewer events than t's step
// budget. The reference pass then dispatches the same events and stops
// the same way.
func (rec *Recording) serves(t *Tester) bool {
	return rec.system == t.Runner.Name() &&
		rec.seed == t.Seed &&
		rec.scale == t.Scale &&
		rec.analysis != nil && rec.analysis == t.Analysis && rec.matcher == t.matcher() &&
		!rec.res.Deadline && !rec.res.Exhausted &&
		rec.res.End <= t.RunDeadline() &&
		(t.MaxSteps == 0 || rec.res.Steps < t.MaxSteps)
}

// SnapshotPlanFrom is BuildSnapshotPlan with the reference pass read
// from rec when rec serves t: the point table and the reference outcome
// come from the recording, and only the capture pass runs. Otherwise
// (rec is nil, cut short, or recorded under other parameters) it builds
// the plan with its own reference pass.
func (t *Tester) SnapshotPlanFrom(rec *Recording) *SnapshotPlan {
	if rec == nil || !rec.serves(t) {
		return t.BuildSnapshotPlan()
	}
	p := t.newPlan()
	p.recorded = true
	for _, h := range rec.hits {
		p.points[h.dyn] = h.ps
	}
	p.refEnd = rec.res.End
	p.refReason = rec.reason
	p.refWitnesses = rec.witnesses
	p.refExceptions = rec.exceptions

	start := time.Now()
	t.captureClones(p)
	t.emitPhase(-1, "clone-capture", time.Since(start), 0)
	return p
}
