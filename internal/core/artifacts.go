package core

import (
	"sync"
	"time"

	"repro/internal/logparse"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// ArtifactCache memoizes everything in the pipeline that reads no fault
// parameter: the offline AnalysisPhase, the profile, the fault-free
// baseline and the snapshot plan. Each is a pure function of (system,
// seed, scale) plus the few Options fields its key names. Experiments
// that touch the same system repeatedly (ctbench rendering several
// tables, crash/recovery/partition campaigns over one configuration, the
// benchmarks) therefore pay the offline half once per system per
// process, as the paper's Table 11 charges it, and only the injection
// runs again. Run builds a fresh cache, so the uncached pipeline takes
// the same path.
//
// The analysis build drives the fault-free run once, as a
// trigger.Recording, and derives four things from it: the analysis (from
// its log records), profiler iteration 0 (the recorded dynamic points,
// filtered by the static points), the baseline (its outcome) and the
// snapshot plan's point table (the stash replayed offline over the
// analysis's matches of the log records up to each first hit). No entry
// keeps the log records: the recording holds only the point table and
// the outcome. The consumers' own runs would each have been this
// execution, because their hooks only observe. The plan takes the record
// only when the record provably is its reference pass: same scale, run
// ended by the workload's status or a drained queue (not by the deadline
// or the step budget), within the plan's run deadline and in fewer
// events than its step budget. Otherwise — the profiler's final-scale
// retry plan, a tiny Options.Deadline, a binding MaxSteps — it builds
// its own reference pass. The capture pass always runs.
//
// Cached artifacts are safe to share: the Matcher is immutable after
// construction (scratch state lives in per-caller MatchSessions), and
// the Analysis, Static, profile, baseline census and plan are read-only
// downstream. Each hit returns a fresh *Result value so the mutable
// pipeline fields (Reports, Summary, Failmode, Timing) never alias
// between callers. A hit copies the cold wall time of the build into
// Timing, so Table 11 reports the same kind of number whichever
// experiment ran first, and emits no phase span.
//
// Invalidation: keys capture every Options field each artifact reads,
// so a cache never serves stale artifacts for a different
// configuration; use Reset to drop all entries (e.g. between experiments
// that mutate global registries, which none currently do).
type ArtifactCache struct {
	analyses memo[artifactKey, analysis]
	profiles memo[profileKey, profile]
	plans    memo[planKey, *trigger.SnapshotPlan]
}

// memo is a single-flight map: the first get of a key builds its value,
// concurrent gets of that key wait for the build, and later ones share
// the value. The zero memo is empty and ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

func (m *memo[K, V]) get(k K, build func() V) V {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e, ok := m.m[k]
	if !ok {
		e = &memoEntry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

func (m *memo[K, V]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m = nil
}

// artifactKey captures the recorded run's inputs: the system plus the
// Options fields it depends on (Workers, Sink etc. only affect later
// phases).
type artifactKey struct {
	system   string
	seed     int64
	scale    int
	deadline sim.Time
}

func analysisKey(r cluster.Runner, opts Options) artifactKey {
	return artifactKey{system: r.Name(), seed: opts.Seed, scale: opts.Scale, deadline: opts.Deadline}
}

type analysis struct {
	res      Result // template; copied on every hit
	matcher  *logparse.Matcher
	baseline trigger.Baseline
	// rec is the recorded run: first hits and outcome, no log records.
	rec *trigger.Recording
}

// profileKey captures the ProfilePhase inputs: the static points it arms
// are a function of the analysis key, so that key plus the profiler's
// own knob is the whole input.
type profileKey struct {
	artifactKey
	maxIterations int
}

type profile struct {
	set  *profiler.Set
	wall time.Duration // the build's Timing.Profile
}

// planKey captures everything a snapshot plan's reference pass depends
// on (trigger.SnapshotPlan.compatible checks the same fields): the run
// deadline enters separately from the analysis deadline because it
// derives from the measured baseline, not from Options.Deadline.
type planKey struct {
	system   string
	seed     int64
	scale    int
	deadline sim.Time
	maxSteps uint64
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache { return &ArtifactCache{} }

// SharedArtifacts is the process-wide cache used by ctbench and the
// benchmarks.
var SharedArtifacts = NewArtifactCache()

// AnalysisPhase is the memoized form of the package-level AnalysisPhase:
// the first call for a key records the fault-free run and derives the
// artifacts, concurrent and later calls share them. The returned Result
// is a fresh copy whose immutable artifact fields (Analysis, Static)
// alias the cached ones.
func (c *ArtifactCache) AnalysisPhase(r cluster.Runner, opts Options) (*Result, *logparse.Matcher) {
	a := c.analysis(r, opts)
	out := a.res
	return &out, a.matcher
}

// analysis returns the memoized entry of opts' key, building it on the
// first call. Its Timing.Analysis covers the recorded run and the stash
// replay.
func (c *ArtifactCache) analysis(r cluster.Runner, opts Options) analysis {
	opts.defaults()
	return c.analyses.get(analysisKey(r, opts), func() analysis {
		start := time.Now()
		rec, logs := trigger.Record(r, opts.Seed, opts.Scale, opts.Deadline)
		res, matcher, matches := analyze(r, logs)
		rec.IndexStash(matcher, res.Analysis, matches)
		res.Timing.Analysis = time.Since(start)
		emitPhase(opts.Sink, r.Name(), "analysis", res.Timing.Analysis, 0)
		return analysis{res: *res, matcher: matcher, baseline: rec.Baseline(), rec: rec}
	})
}

// profilePhase is the memoized form of the package-level ProfilePhase,
// with iteration 0 read from the key's recorded run. res must come from
// c.AnalysisPhase under the same opts: the key omits the static points
// because they are a function of the analysis key. Every caller of a key
// shares one immutable *profiler.Set.
func (c *ArtifactCache) profilePhase(r cluster.Runner, res *Result, opts Options) {
	opts.defaults()
	key := profileKey{analysisKey(r, opts), opts.MaxProfileIterations}
	p := c.profiles.get(key, func() profile {
		built := Result{Static: res.Static}
		profilePhase(r, &built, opts, c.analysis(r, opts).rec)
		return profile{built.Dynamic, built.Timing.Profile}
	})
	res.Dynamic, res.Timing.Profile = p.set, p.wall
}

func planKeyOf(t *trigger.Tester) planKey {
	return planKey{
		system:   t.Runner.Name(),
		seed:     t.Seed,
		scale:    t.Scale,
		deadline: t.RunDeadline(),
		maxSteps: t.MaxSteps,
	}
}

// SnapshotPlan memoizes trigger.Tester.BuildSnapshotPlan per (system,
// seed, scale, run-deadline, step budget) — the exact parameters the
// plan's compatibility gate checks. A plan depends only on the
// fault-free run prefix, so one reference pass serves every campaign
// kind over the same parameters: plain test, recovery, RandomTarget
// ablation, and the repeated campaigns of a benchmark. The first caller
// pays the reference pass (and emits its "snapshot" phase span on that
// Tester's sink); concurrent and later callers share the immutable plan.
func (c *ArtifactCache) SnapshotPlan(t *trigger.Tester) *trigger.SnapshotPlan {
	return c.plans.get(planKeyOf(t), t.BuildSnapshotPlan)
}

// snapshotPlan is SnapshotPlan for a Tester that TestPhase or an
// executor built from c.AnalysisPhase(r, opts): the plan is built from
// that key's recorded run when the record serves t
// (trigger.Tester.SnapshotPlanFrom), so only the capture pass runs.
func (c *ArtifactCache) snapshotPlan(t *trigger.Tester, opts Options) *trigger.SnapshotPlan {
	rec := c.analysis(t.Runner, opts).rec
	return c.plans.get(planKeyOf(t), func() *trigger.SnapshotPlan { return t.SnapshotPlanFrom(rec) })
}

// Baseline returns the fault-free baseline of (system, seed, scale,
// deadline): the recorded run's outcome, equal to
// trigger.MeasureBaseline's one-run census. The fault-free run reads no
// fault parameter, so every campaign kind over one configuration — the
// test phases of a cached pipeline, the executors a fleet worker builds,
// a confirmation executor — shares one census. The returned value
// aliases the cached exception census, which is read-only downstream.
func (c *ArtifactCache) Baseline(r cluster.Runner, opts Options) trigger.Baseline {
	return c.analysis(r, opts).baseline
}

// Run executes the full pipeline on the cached analysis, profile,
// baseline and snapshot plans: only the injection campaign is paid on
// every call.
func (c *ArtifactCache) Run(r cluster.Runner, opts Options) *Result {
	res, matcher := c.AnalysisPhase(r, opts)
	c.profilePhase(r, res, opts)
	opts.artifacts = c
	TestPhase(r, matcher, res, opts)
	return res
}

// Len returns the number of cached analysis entries.
func (c *ArtifactCache) Len() int { return c.analyses.len() }

// Plans returns the number of memoized snapshot plans.
func (c *ArtifactCache) Plans() int { return c.plans.len() }

// Reset drops every cached entry.
func (c *ArtifactCache) Reset() {
	c.analyses.reset()
	c.profiles.reset()
	c.plans.reset()
}
