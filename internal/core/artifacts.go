package core

import (
	"sync"

	"repro/internal/logparse"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// ArtifactCache memoizes the offline AnalysisPhase. The phase is a pure
// function of (system, seed, scale, deadline): it replays one fault-free
// profiling run and derives the patterns, the meta-info analysis and the
// static crash points — all immutable once built. Experiments that touch
// the same system repeatedly (ctbench rendering several tables, the
// benchmarks, table-set comparisons) therefore run the offline phase once
// per system per process and share the artifacts.
//
// Cached artifacts are safe to share: the Matcher is immutable after
// construction (scratch state lives in per-caller MatchSessions), and
// the Analysis and Static results are read-only downstream. Each hit
// returns a fresh *Result value so the mutable pipeline fields (Dynamic,
// Baseline, Reports, Summary, Timing) never alias between callers.
//
// Invalidation: keys capture every Options field the phase reads, so a
// cache never serves stale artifacts for a different configuration; use
// Reset to drop all entries (e.g. between experiments that mutate global
// registries, which none currently do).
type ArtifactCache struct {
	mu        sync.Mutex
	entries   map[artifactKey]*artifactEntry
	plans     map[planKey]*planEntry
	baselines map[baselineKey]*baselineEntry
}

// artifactKey captures the AnalysisPhase inputs: the system plus the
// Options fields the phase depends on (Workers, Sink, BaselineRuns
// etc. only affect later phases).
type artifactKey struct {
	system   string
	seed     int64
	scale    int
	deadline sim.Time
}

type artifactEntry struct {
	once    sync.Once
	res     Result // template; copied on every hit
	matcher *logparse.Matcher
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

type planEntry struct {
	once sync.Once
	plan *trigger.SnapshotPlan
}

// baselineKey captures the trigger.MeasureBaseline inputs.
type baselineKey struct {
	system   string
	seed     int64
	scale    int
	runs     int
	deadline sim.Time
}

type baselineEntry struct {
	once     sync.Once
	baseline trigger.Baseline
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{
		entries:   make(map[artifactKey]*artifactEntry),
		plans:     make(map[planKey]*planEntry),
		baselines: make(map[baselineKey]*baselineEntry),
	}
}

// SharedArtifacts is the process-wide cache used by ctbench and the
// benchmarks.
var SharedArtifacts = NewArtifactCache()

// AnalysisPhase is the memoized form of the package-level AnalysisPhase:
// the first call for a key computes the artifacts, concurrent and later
// calls share them. The returned Result is a fresh copy whose immutable
// artifact fields (Analysis, Static) alias the cached ones.
func (c *ArtifactCache) AnalysisPhase(r cluster.Runner, opts Options) (*Result, *logparse.Matcher) {
	opts.defaults()
	key := artifactKey{system: r.Name(), seed: opts.Seed, scale: opts.Scale, deadline: opts.Deadline}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &artifactEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		res, matcher := AnalysisPhase(r, opts)
		e.res = *res
		e.matcher = matcher
	})
	out := e.res
	return &out, e.matcher
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
	key := planKey{
		system:   t.Runner.Name(),
		seed:     t.Seed,
		scale:    t.Scale,
		deadline: t.RunDeadline(),
		maxSteps: t.MaxSteps,
	}
	c.mu.Lock()
	e, ok := c.plans[key]
	if !ok {
		e = &planEntry{}
		c.plans[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.plan = t.BuildSnapshotPlan() })
	return e.plan
}

// Baseline memoizes trigger.MeasureBaseline per (system, seed, scale,
// runs, deadline): the fault-free runs read no fault parameter, so the
// executors a fleet worker builds for the campaign kinds of one plan
// set share one measurement. The returned value aliases the cached
// exception census, which is read-only downstream.
func (c *ArtifactCache) Baseline(r cluster.Runner, opts Options) trigger.Baseline {
	opts.defaults()
	key := baselineKey{system: r.Name(), seed: opts.Seed, scale: opts.Scale, runs: opts.BaselineRuns, deadline: opts.Deadline}
	c.mu.Lock()
	e, ok := c.baselines[key]
	if !ok {
		e = &baselineEntry{}
		c.baselines[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.baseline = trigger.MeasureBaseline(r, opts.Seed, opts.Scale, opts.BaselineRuns, opts.Deadline)
	})
	return e.baseline
}

// Run executes the full pipeline, reusing cached analysis artifacts and
// memoized snapshot plans.
func (c *ArtifactCache) Run(r cluster.Runner, opts Options) *Result {
	res, matcher := c.AnalysisPhase(r, opts)
	ProfilePhase(r, res, opts)
	opts.artifacts = c
	TestPhase(r, matcher, res, opts)
	return res
}

// Len returns the number of cached analysis entries.
func (c *ArtifactCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Plans returns the number of memoized snapshot plans.
func (c *ArtifactCache) Plans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// Reset drops every cached entry.
func (c *ArtifactCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[artifactKey]*artifactEntry)
	c.plans = make(map[planKey]*planEntry)
	c.baselines = make(map[baselineKey]*baselineEntry)
}
