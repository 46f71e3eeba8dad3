// Package core wires the CrashTuner pipeline together (Fig. 4): log
// analysis and static crash point analysis (phase 1), profiling to
// dynamic crash points, then fault-injection testing with the online
// stash and the trigger (phase 2).
package core

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/failmode"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// Options configures a pipeline run.
type Options struct {
	// Config carries the shared campaign-execution knobs (worker pool,
	// checkpointing, observability sink) that flow into the test-phase
	// trigger campaign; see campaign.Config.
	campaign.Config

	// Seed drives every run of the campaign.
	Seed int64
	// Scale is the workload size for testing runs (profiling doubles its
	// own copy starting from this value).
	Scale int
	// BaselineRuns is the number of fault-free runs used to census
	// exception signatures (default 3).
	BaselineRuns int
	// Deadline bounds individual runs in virtual time (default 1h).
	Deadline sim.Time
	// MaxProfileIterations caps the profiler's doubling loop.
	MaxProfileIterations int
	// RandomTarget makes the trigger pick a random node instead of the
	// stash-resolved owner (ablation of §3.2.2's alternative).
	RandomTarget bool
	// Recovery, when non-nil, switches the test phase to recovery-phase
	// injection (restart the victim, optionally fault it again during
	// recovery) with the extended recovery oracle.
	Recovery *trigger.RecoveryOptions
	// Partition, when non-nil, switches the test phase to the
	// network-partition fault family: the stash-resolved victim is cut
	// off (instead of, or — with Recovery also set — in addition to,
	// being killed) and runs are judged by the partition oracle. With
	// Partition.Guided, the test phase first learns cross-node
	// consistency invariants from a clean run and injects at the first
	// observed violation, falling back to the standard point campaign
	// when no violation is observed.
	Partition *trigger.PartitionOptions
	// MaxSteps bounds each injection run's event count (0: the sim
	// default); exhausted runs are reported as harness errors.
	MaxSteps uint64
	// Analyze runs the failure-mode analytics (internal/failmode) over
	// the test campaign after it finishes: the runs are clustered into
	// modes and scored against the learned clean-run profile, the
	// report lands in Result.Failmode, and — when a Recorder is
	// configured — the discovered modes are fed to it as advisory
	// failmode records. Modes never affect Summary.Bugs.
	Analyze bool

	// artifacts is set by ArtifactCache.Run so TestPhase takes the
	// baseline and the snapshot plans from the cache that holds the
	// analysis and the profile.
	artifacts *ArtifactCache
}

// emitPhase reports one finished pipeline phase (analysis, profile,
// test) on the Options sink as a top-level phase span scoped to the
// system under test.
func emitPhase(sink obs.Sink, system, name string, wall time.Duration, simT sim.Time) {
	if sink == nil {
		return
	}
	sink.Emit(obs.Event{
		Kind:  obs.PhaseEnd,
		Scope: obs.Scope{System: system, Campaign: "pipeline"},
		Run:   -1,
		Phase: name,
		Wall:  wall,
		Sim:   simT,
	})
}

func (o *Options) defaults() {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.BaselineRuns <= 0 {
		o.BaselineRuns = 3
	}
	if o.Deadline <= 0 {
		o.Deadline = sim.Hour
	}
}

// Timing records wall-clock per phase (Table 11's Analysis / Profile /
// Test columns) alongside the virtual time the test runs consumed.
type Timing struct {
	Analysis time.Duration
	Profile  time.Duration
	Test     time.Duration
	// VirtualTest sums the virtual duration of every injection run —
	// the analogue of the paper's wall-clock testing hours on a real
	// cluster.
	VirtualTest sim.Time
}

// Result is the full pipeline output for one system.
type Result struct {
	System   string
	Workload string

	// Phase 1 artifacts.
	Patterns  int
	Parsed    int
	Unmatched int
	Analysis  *metainfo.Analysis
	Static    *crashpoint.Result

	// Profiling artifacts.
	Dynamic *profiler.Set

	// Testing artifacts.
	Baseline trigger.Baseline
	Reports  []trigger.Report
	Summary  trigger.Summary

	// Failmode is the post-campaign analytics report (Options.Analyze);
	// nil when analysis was off. Its modes and silent-failure suspects
	// are advisory and never counted in Summary.Bugs.
	Failmode *failmode.Report

	Timing Timing
}

// AnalysisPhase runs the system once to generate logs, mines them, infers
// meta-info, and computes static crash points (top half of Fig. 4).
func AnalysisPhase(r cluster.Runner, opts Options) (*Result, *logparse.Matcher) {
	opts.defaults()
	start := time.Now()

	// One profiling run with the given workload to produce logs.
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: opts.Seed, Scale: opts.Scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, opts.Deadline)

	program := r.Program()
	matcher := logparse.MatcherFor(program)
	parsed := matcher.ParseAll(logs.Records())
	analysis := metainfo.Infer(program, parsed.Matches, r.Hosts())
	static := crashpoint.Analyze(analysis)

	res := &Result{
		System:    r.Name(),
		Workload:  r.Workload(),
		Patterns:  len(matcher.Patterns()),
		Parsed:    len(parsed.Matches),
		Unmatched: len(parsed.Unmatched),
		Analysis:  analysis,
		Static:    static,
	}
	res.Timing.Analysis = time.Since(start)
	emitPhase(opts.Sink, r.Name(), "analysis", res.Timing.Analysis, 0)
	return res, matcher
}

// ProfilePhase collects dynamic crash points for the static points.
func ProfilePhase(r cluster.Runner, res *Result, opts Options) {
	opts.defaults()
	start := time.Now()
	res.Dynamic = profiler.Collect(r, res.Static, profiler.Options{
		Seed:          opts.Seed,
		StartScale:    opts.Scale,
		MaxIterations: opts.MaxProfileIterations,
		Deadline:      opts.Deadline,
	})
	res.Timing.Profile = time.Since(start)
	emitPhase(opts.Sink, r.Name(), "profile", res.Timing.Profile, 0)
}

// snapshotPlan returns the plan TestPhase installs on a Tester: the
// memoized plan when the phase runs under an ArtifactCache, a freshly
// built one otherwise. The Tester must already carry its measured
// baseline — plans are keyed on the run deadline, which derives from it.
func (o Options) snapshotPlan(t *trigger.Tester) *trigger.SnapshotPlan {
	if o.artifacts != nil {
		return o.artifacts.SnapshotPlan(t)
	}
	return t.BuildSnapshotPlan()
}

// baseline returns the fault-free baseline TestPhase judges runs
// against: the memoized one when the phase runs under an ArtifactCache,
// a fresh measurement otherwise.
func (o Options) baseline(r cluster.Runner) trigger.Baseline {
	if o.artifacts != nil {
		return o.artifacts.Baseline(r, o)
	}
	return trigger.MeasureBaseline(r, o.Seed, o.Scale, o.BaselineRuns, o.Deadline)
}

// TestPhase measures the baseline and exercises every dynamic crash
// point.
func TestPhase(r cluster.Runner, matcher *logparse.Matcher, res *Result, opts Options) {
	opts.defaults()
	start := time.Now()
	// The analytics collector rides the campaign's own observability
	// channels: it sees the trace side as a Sink and the triage side as
	// a Recorder, so the post-campaign analysis needs no trace file.
	var col *failmode.Collector
	feed := opts.Recorder
	if opts.Analyze {
		col = failmode.NewCollector()
		opts.Sink = obs.Multi(opts.Sink, col)
		opts.Recorder = campaign.MultiRecorder(opts.Recorder, col)
	}
	res.Baseline = opts.baseline(r)
	t := &trigger.Tester{
		Config:       opts.Config,
		Runner:       r,
		Analysis:     res.Analysis,
		Matcher:      matcher,
		Baseline:     res.Baseline,
		Seed:         opts.Seed,
		Scale:        opts.Scale,
		RandomTarget: opts.RandomTarget,
		Recovery:     opts.Recovery,
		Partition:    opts.Partition,
		MaxSteps:     opts.MaxSteps,
	}
	guided := false
	if opts.Partition != nil && opts.Partition.Guided {
		// Consistency-guided mode: learn invariants from a clean run and
		// inject at the first observed violation. Guided ordinals index
		// the whole access stream, so these runs never fork from
		// snapshots. An empty point set (no violation ever observed)
		// falls back to the standard point campaign below.
		if gps := t.GuidedPoints(); len(gps) > 0 {
			res.Reports = t.GuidedCampaign(gps)
			guided = true
		}
	}
	if !guided {
		t.Snapshots = opts.snapshotPlan(t)
		res.Reports = t.Campaign(res.Dynamic.Points)
	}
	// Dynamic points discovered only at larger profiling scales may not
	// execute at the base test scale; retry those at the profiler's
	// final scale so every collected point is genuinely exercised. The
	// retries are a second campaign through the same engine, on a Tester
	// copy scaled up to the profiler's final scale.
	if !guided && res.Dynamic != nil && res.Dynamic.FinalScale > opts.Scale {
		var retry []int
		for i, rep := range res.Reports {
			if rep.Outcome == trigger.NotHit {
				retry = append(retry, i)
			}
		}
		if len(retry) > 0 {
			rt := *t
			rt.Scale = res.Dynamic.FinalScale
			// The retry set indexes a different point list; sharing the
			// main campaign's checkpoint file would corrupt both.
			rt.CheckpointPath = ""
			rt.Resume = false
			// The scale change invalidates the main campaign's plan
			// (SnapshotPlan.compatible); fork the retries from their own.
			rt.Snapshots = opts.snapshotPlan(&rt)
			points := make([]probe.DynPoint, len(retry))
			for j, i := range retry {
				points[j] = res.Reports[i].Dyn
			}
			for j, rep := range rt.Campaign(points) {
				res.Reports[retry[j]] = rep
			}
		}
	}
	for _, rep := range res.Reports {
		res.Timing.VirtualTest += rep.Duration
	}
	res.Summary = trigger.Summarize(res.Reports)
	if col != nil {
		runs := col.Runs()
		_, res.Failmode = failmode.Fit(runs, failmode.DefaultConfig())
		if feed != nil {
			res.Failmode.FeedTriage(feed, runs)
		}
	}
	res.Timing.Test = time.Since(start)
	emitPhase(opts.Sink, r.Name(), "test", res.Timing.Test, res.Timing.VirtualTest)
}

// Run executes the full pipeline.
func Run(r cluster.Runner, opts Options) *Result {
	res, matcher := AnalysisPhase(r, opts)
	ProfilePhase(r, res, opts)
	TestPhase(r, matcher, res, opts)
	return res
}
