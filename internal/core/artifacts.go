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
// seed, scale) plus the few Options fields its key names: the analysis
// replays one fault-free profiling run and derives the patterns, the
// meta-info analysis and the static crash points; the profile runs the
// system against those static points; the baseline and the plan's
// reference pass are fault-free runs. All of them are immutable once
// built. Experiments that touch the same system repeatedly (ctbench
// rendering several tables, crash/recovery/partition campaigns over one
// configuration, the benchmarks) therefore pay the offline half once per
// system per process, as the paper's Table 11 charges it, and only the
// injection runs again.
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
	analyses  memo[artifactKey, analysis]
	profiles  memo[profileKey, profile]
	baselines memo[artifactKey, trigger.Baseline]
	plans     memo[planKey, *trigger.SnapshotPlan]
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

// artifactKey captures the AnalysisPhase inputs: the system plus the
// Options fields the phase depends on (Workers, Sink etc. only affect
// later phases). The fault-free baseline reads the same inputs.
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
	res     Result // template; copied on every hit
	matcher *logparse.Matcher
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
// the first call for a key computes the artifacts, concurrent and later
// calls share them. The returned Result is a fresh copy whose immutable
// artifact fields (Analysis, Static) alias the cached ones.
func (c *ArtifactCache) AnalysisPhase(r cluster.Runner, opts Options) (*Result, *logparse.Matcher) {
	opts.defaults()
	a := c.analyses.get(analysisKey(r, opts), func() analysis {
		res, matcher := AnalysisPhase(r, opts)
		return analysis{*res, matcher}
	})
	out := a.res
	return &out, a.matcher
}

// profilePhase is the memoized form of the package-level ProfilePhase.
// res must come from c.AnalysisPhase under the same opts: the key omits
// the static points because they are a function of the analysis key.
// Every caller of a key shares one immutable *profiler.Set.
func (c *ArtifactCache) profilePhase(r cluster.Runner, res *Result, opts Options) {
	opts.defaults()
	key := profileKey{analysisKey(r, opts), opts.MaxProfileIterations}
	p := c.profiles.get(key, func() profile {
		built := Result{Static: res.Static}
		ProfilePhase(r, &built, opts)
		return profile{built.Dynamic, built.Timing.Profile}
	})
	res.Dynamic, res.Timing.Profile = p.set, p.wall
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
	return c.plans.get(key, t.BuildSnapshotPlan)
}

// Baseline memoizes trigger.MeasureBaseline per (system, seed, scale,
// deadline): the fault-free run reads no fault parameter, so every
// campaign kind over one configuration — the test phases of a cached
// pipeline, the executors a fleet worker builds, a confirmation
// executor — shares one measurement. The returned value aliases the
// cached exception census, which is read-only downstream.
func (c *ArtifactCache) Baseline(r cluster.Runner, opts Options) trigger.Baseline {
	opts.defaults()
	return c.baselines.get(analysisKey(r, opts), func() trigger.Baseline {
		return trigger.MeasureBaseline(r, opts.Seed, opts.Scale, 1, opts.Deadline)
	})
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
	c.baselines.reset()
	c.plans.reset()
}
