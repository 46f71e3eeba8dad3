package main

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// The pipeline defaults core.Options applies; the decomposed op has to
// spell them out because it calls the layers directly. If core changes
// them, the decomposed op's verdicts stop matching the untraced op's
// and the run is reported incorrect.
const (
	baselineRuns = 3
	runDeadline  = sim.Hour
)

// systems returns a fresh runner for each of the seven systems: the
// paper's five in Table 4 order, then the two extensions.
func systems() []cluster.Runner { return append(all.Runners(), all.Extensions()...) }

// pipelineOptions is the configuration every op runs under: one worker,
// so one client goroutine does all the work.
func pipelineOptions(seed int64, scale int) core.Options {
	return core.Options{Config: campaign.Config{Workers: 1}, Seed: seed, Scale: scale}
}

// verdictLine is the canonical rendering of one injection run that the
// output check hashes: point, outcome, target, fault and its time,
// simulated duration, witnesses.
func verdictLine(rep trigger.Report) string {
	fault := "-"
	if f := rep.Injected; f != nil {
		fault = fmt.Sprintf("%s@%d", f.Kind, int64(f.At))
	}
	return fmt.Sprintf("%s|%s|%s|%s|%d|%s", rep.Dyn.Key(), rep.Outcome, rep.Target, fault, int64(rep.Duration), strings.Join(rep.Witnesses, ","))
}

// verdicts is what the output check keeps of an op, for one golden
// group (a system).
type verdicts struct {
	group     string
	lines     []string
	runs      int
	bugs      int
	harness   int      // runs the harness had to abort
	witnesses []string // seeded-bug ids seen on bug-outcome runs
}

func verdictsOf(group string, reports []trigger.Report) verdicts {
	v := verdicts{group: group, runs: len(reports)}
	for _, rep := range reports {
		v.lines = append(v.lines, verdictLine(rep))
		switch {
		case rep.Outcome == trigger.HarnessError:
			v.harness++
		case rep.Outcome.IsBug():
			v.bugs++
			v.witnesses = append(v.witnesses, rep.Witnesses...)
		}
	}
	return v
}

// testProbe is the in-memory obs.Sink a traced op may put on
// Options.Sink: it sums the wall time of the per-run phases the trigger
// reports (setup, drive, oracle) and counts the runs. The decomposed
// test phase also notes the clone rungs of the snapshot plans it used.
type testProbe struct {
	wall  map[string]float64 // phase -> summed ns, run-level phases only
	runs  int
	rungs int
}

func newTestProbe() *testProbe { return &testProbe{wall: map[string]float64{}} }

func (p *testProbe) Emit(ev obs.Event) {
	switch {
	case ev.Kind == obs.PhaseEnd && ev.Run >= 0:
		p.wall[ev.Phase] += float64(ev.Wall)
	case ev.Kind == obs.RunDone:
		p.runs++
	}
}

// decomposedRun is core.Run (cache == nil) or ArtifactCache.Run spelled
// out as the public layer calls those functions make today, in the same
// order, each under a span. tp may be nil.
func decomposedRun(tr *spans, r cluster.Runner, opts core.Options, cache *core.ArtifactCache, tp *testProbe) *core.Result {
	var res *core.Result
	var matcher *logparse.Matcher
	tr.time("core.analysis", func() {
		if cache != nil {
			res, matcher = cache.AnalysisPhase(r, opts)
			return
		}
		res, matcher = decomposedAnalysis(tr, r, opts)
	})
	decomposedProfileAndTest(tr, r, matcher, res, opts, cache, tp)
	return res
}

// decomposedAnalysis is core.AnalysisPhase as its layer calls.
func decomposedAnalysis(tr *spans, r cluster.Runner, opts core.Options) (*core.Result, *logparse.Matcher) {
	var logs *dslog.Root
	tr.time("systems.run", func() {
		logs = dslog.NewRoot()
		run := r.NewRun(cluster.Config{Seed: opts.Seed, Scale: opts.Scale, Probe: probe.New(), Logs: logs})
		cluster.Drive(run, runDeadline)
	})
	res := &core.Result{System: r.Name(), Workload: r.Workload()}
	var program *ir.Program
	var matcher *logparse.Matcher
	var parsed logparse.Result
	tr.time("ir.program", func() { program = r.Program() })
	tr.time("logparse.build", func() { matcher = logparse.NewMatcher(logparse.ExtractPatterns(program)) })
	tr.time("logparse.parse", func() { parsed = matcher.ParseAll(logs.Records()) })
	tr.time("metainfo.infer", func() { res.Analysis = metainfo.Infer(program, parsed.Matches, r.Hosts()) })
	tr.time("crashpoint.analyze", func() { res.Static = crashpoint.Analyze(res.Analysis) })
	res.Patterns, res.Parsed, res.Unmatched = len(matcher.Patterns()), len(parsed.Matches), len(parsed.Unmatched)
	return res, matcher
}

// decomposedProfileAndTest is core.ProfilePhase and core.TestPhase as
// their layer calls. A consistency-guided campaign is reached through
// core.Options only, so its test phase stays one opaque span.
func decomposedProfileAndTest(tr *spans, r cluster.Runner, matcher *logparse.Matcher, res *core.Result, opts core.Options, cache *core.ArtifactCache, tp *testProbe) {
	tr.time("core.profile", func() {
		tr.time("profiler.collect", func() {
			res.Dynamic = profiler.Collect(r, res.Static, profiler.Options{Seed: opts.Seed, StartScale: opts.Scale, Deadline: runDeadline})
		})
	})
	tr.time("core.test", func() { decomposedTest(tr, r, matcher, res, opts, cache, tp) })
}

func decomposedTest(tr *spans, r cluster.Runner, matcher *logparse.Matcher, res *core.Result, opts core.Options, cache *core.ArtifactCache, tp *testProbe) {
	if tp != nil {
		opts.Sink = tp
	}
	if opts.Partition != nil && opts.Partition.Guided {
		tr.time("core.test.guided", func() { core.TestPhase(r, matcher, res, opts) })
		return
	}
	tr.time("trigger.baseline", func() {
		res.Baseline = trigger.MeasureBaseline(r, opts.Seed, opts.Scale, baselineRuns, runDeadline)
	})
	t := &trigger.Tester{
		Config:    opts.Config,
		Runner:    r,
		Analysis:  res.Analysis,
		Matcher:   matcher,
		Baseline:  res.Baseline,
		Seed:      opts.Seed,
		Scale:     opts.Scale,
		Recovery:  opts.Recovery,
		Partition: opts.Partition,
	}
	plan := func(t *trigger.Tester) {
		tr.time("trigger.plan", func() {
			if cache != nil {
				t.Snapshots = cache.SnapshotPlan(t)
			} else {
				t.Snapshots = t.BuildSnapshotPlan()
			}
		})
		if tp != nil {
			tp.rungs += t.Snapshots.Rungs()
		}
	}
	plan(t)
	tr.time("trigger.campaign", func() { res.Reports = t.Campaign(res.Dynamic.Points) })
	if res.Dynamic.FinalScale > opts.Scale {
		// Points that only execute at the profiler's final scale are
		// retried there, on a scaled copy of the tester.
		var retry []int
		for i, rep := range res.Reports {
			if rep.Outcome == trigger.NotHit {
				retry = append(retry, i)
			}
		}
		if len(retry) > 0 {
			rt := *t
			rt.Scale = res.Dynamic.FinalScale
			plan(&rt)
			points := make([]probe.DynPoint, len(retry))
			for j, i := range retry {
				points[j] = res.Reports[i].Dyn
			}
			tr.time("trigger.campaign", func() {
				for j, rep := range rt.Campaign(points) {
					res.Reports[retry[j]] = rep
				}
			})
		}
	}
	tr.time("trigger.summarize", func() { res.Summary = trigger.Summarize(res.Reports) })
}
