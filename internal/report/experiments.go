package report

import (
	"path/filepath"

	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dslog"
	"repro/internal/logparse"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// Experiments holds everything needed to render the run-based tables.
type Experiments struct {
	Seed       int64
	Scale      int
	RandomRuns int
	// Workers bounds the campaign worker pools: systems fan out across
	// it in RunPipelines/RunBaselines, and each system's campaign fans
	// its runs out with the same setting. Zero or negative means one
	// worker per CPU; 1 reproduces the fully sequential execution. All
	// tables are identical for any worker count.
	Workers int
	// Sink, when non-nil, observes every campaign the experiment set
	// runs: the outer per-system fan-outs and each system's own
	// injection campaigns all emit obs events into it. Sink
	// implementations must be safe for concurrent use.
	Sink obs.Sink
	// Recorder, when non-nil, receives one run record per completed
	// injection run across every campaign the experiment set executes
	// (pipelines, baselines and recovery), feeding the triage store.
	// Implementations must be safe for concurrent use: campaigns for
	// different systems deliver their records in parallel.
	Recorder campaign.RunRecorder

	// Analyze runs the failure-mode analytics over every system's test
	// campaign (core.Options.Analyze): discovered modes feed the
	// Recorder as advisory failmode records, and the campaign summary
	// gains a silent-failure-suspect column. Advisory only —
	// Summary.Bugs and every numbered table are unchanged.
	Analyze bool

	// Artifacts, when non-nil, memoizes the analysis, profile, baseline
	// and snapshot plans across pipelines (and across experiment sets
	// sharing the cache), so the crash, recovery and partition campaigns
	// of one system pay them once and only their injection runs each.
	// The rendered tables are identical with and without the cache.
	Artifacts *core.ArtifactCache

	// CheckpointDir, when non-empty, makes every campaign resumable:
	// each system's test phase checkpoints to <dir>/<system>.ckpt (and
	// <dir>/<system>.recovery.ckpt for the recovery campaigns). With
	// Resume set, a rerun skips the points already on disk and renders
	// byte-identical tables.
	CheckpointDir string
	Resume        bool

	Systems  []cluster.Runner
	Results  map[string]*core.Result
	Matchers map[string]*logparse.Matcher
	Random   map[string]*baseline.Result
	IO       map[string]*baseline.Result
	// Recovered holds the recovery-mode pipeline results (RunRecovery)
	// and Partitioned the partition-mode ones (RunPartition), keyed like
	// Results.
	Recovered   map[string]*core.Result
	Partitioned map[string]*core.Result
}

// NewExperiments prepares an experiment set over all systems.
func NewExperiments(seed int64, scale, randomRuns int) *Experiments {
	if scale < 1 {
		scale = 1
	}
	if randomRuns <= 0 {
		randomRuns = 100
	}
	return &Experiments{
		Seed:        seed,
		Scale:       scale,
		RandomRuns:  randomRuns,
		Systems:     all.Runners(),
		Results:     make(map[string]*core.Result),
		Matchers:    make(map[string]*logparse.Matcher),
		Random:      make(map[string]*baseline.Result),
		IO:          make(map[string]*baseline.Result),
		Recovered:   make(map[string]*core.Result),
		Partitioned: make(map[string]*core.Result),
	}
}

// checkpointPath names a campaign's checkpoint file; empty when
// checkpointing is off.
func (x *Experiments) checkpointPath(system, suffix string) string {
	if x.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(x.CheckpointDir, system+suffix)
}

// RunPipelines executes the CrashTuner pipeline on every system. The
// per-system pipelines fan out across the worker pool (each system's own
// campaign additionally parallelizes its injection runs); results land
// in the maps keyed by system name, so rendering order — and therefore
// every table — is independent of scheduling.
func (x *Experiments) RunPipelines() {
	type pipelineOut struct {
		res     *core.Result
		matcher *logparse.Matcher
	}
	outs := campaign.Run(len(x.Systems), campaign.Options[pipelineOut]{
		Workers: x.Workers,
		Sink:    x.Sink,
		Scope:   obs.Scope{Campaign: "pipelines"},
	}, func(i int) pipelineOut {
		r := x.Systems[i]
		opts := core.Options{
			Config: campaign.Config{
				Workers:        x.Workers,
				CheckpointPath: x.checkpointPath(r.Name(), ".ckpt"),
				Resume:         x.Resume,
				Sink:           x.Sink,
				Recorder:       x.Recorder,
			},
			Seed: x.Seed, Scale: x.Scale,
			Analyze: x.Analyze,
		}
		res, matcher := x.pipeline(r, opts)
		return pipelineOut{res, matcher}
	})
	for i, r := range x.Systems {
		x.Results[r.Name()] = outs[i].res
		x.Matchers[r.Name()] = outs[i].matcher
	}
}

// pipeline runs one system's full pipeline, through the artifact cache
// when one is configured, and returns the result with the log matcher
// the analysis used. The matcher is a function of the system's program
// alone (logparse.MatcherFor), so it is looked up rather than threaded
// out of the pipeline.
func (x *Experiments) pipeline(r cluster.Runner, opts core.Options) (*core.Result, *logparse.Matcher) {
	var res *core.Result
	if x.Artifacts != nil {
		res = x.Artifacts.Run(r, opts)
	} else {
		res = core.Run(r, opts)
	}
	return res, logparse.MatcherFor(r.Program())
}

// RunBaselines executes the random and IO-injection campaigns, fanning
// the systems out across the worker pool.
func (x *Experiments) RunBaselines() {
	type baselineOut struct {
		random, io *baseline.Result
	}
	outs := campaign.Run(len(x.Systems), campaign.Options[baselineOut]{
		Workers: x.Workers,
		Sink:    x.Sink,
		Scope:   obs.Scope{Campaign: "baselines"},
	}, func(i int) baselineOut {
		r := x.Systems[i]
		res := x.Results[r.Name()]
		if res == nil {
			return baselineOut{}
		}
		opts := baseline.Options{Seed: x.Seed, Scale: x.Scale, Runs: x.RandomRuns}
		opts.Workers = x.Workers
		opts.Sink = x.Sink
		opts.Recorder = x.Recorder
		ro, io := opts, opts
		ro.CheckpointPath = x.checkpointPath(r.Name(), ".random.ckpt")
		ro.Resume = x.Resume
		io.CheckpointPath = x.checkpointPath(r.Name(), ".io.ckpt")
		io.Resume = x.Resume
		return baselineOut{
			random: baseline.Random(r, res.Baseline, ro),
			io:     baseline.IOInjection(r, x.Matchers[r.Name()], res.Baseline, io),
		}
	})
	for i, r := range x.Systems {
		if outs[i].random == nil {
			continue
		}
		x.Random[r.Name()] = outs[i].random
		x.IO[r.Name()] = outs[i].io
	}
}

// FoundBugs returns the paper bug IDs whose seeded counterparts the
// campaigns detected.
func (x *Experiments) FoundBugs() map[string]bool {
	out := map[string]bool{}
	for _, res := range x.Results {
		for _, id := range res.Summary.WitnessedBugs {
			out[id] = true
		}
	}
	return out
}

// Table5Live renders Table 5 with live detection results.
func (x *Experiments) Table5Live() string { return Table5(x.FoundBugs()) }

// Table7 renders the random crash injection results.
func (x *Experiments) Table7() string {
	t := &tw{}
	t.row("System", "Runs", "Time(virt)", "Bug runs", "Distinct bugs (hits)")
	for _, r := range x.Systems {
		b := x.Random[r.Name()]
		if b == nil {
			continue
		}
		t.row(r.Name(),
			fmt.Sprintf("%d", b.Runs),
			b.VirtualTime.String(),
			fmt.Sprintf("%d", b.BugRuns),
			bugHits(b))
	}
	return "Table 7: results of random crash injection\n" + t.String()
}

func bugHits(b *baseline.Result) string {
	if len(b.BugHits) == 0 {
		return "0"
	}
	var cells []string
	for _, id := range b.DistinctBugs() {
		cells = append(cells, fmt.Sprintf("%s(%d)", id, b.BugHits[id]))
	}
	return strings.Join(cells, " ")
}

// Table8 renders the IO census: IR-side statics plus profiled dynamic IO
// points (log emissions as the observable IO of the simulation).
func (x *Experiments) Table8() string {
	t := &tw{}
	t.row("System", "# IO classes", "# IO methods", "# Static IO points", "# Dynamic IO points")
	totals := [4]int{}
	for _, r := range x.Systems {
		c := r.Program().IOCensus()
		res := x.Results[r.Name()]
		dyn := 0
		if res != nil {
			pts := baseline.CollectIOPoints(r, x.Matchers[r.Name()], x.Seed, x.Scale, sim.Hour)
			dyn = len(pts)
		}
		t.row(r.Name(), fmt.Sprintf("%d", c.IOClasses), fmt.Sprintf("%d", c.IOMethods),
			fmt.Sprintf("%d", c.StaticIOs), fmt.Sprintf("%d", dyn))
		totals[0] += c.IOClasses
		totals[1] += c.IOMethods
		totals[2] += c.StaticIOs
		totals[3] += dyn
	}
	t.row("Total", fmt.Sprintf("%d", totals[0]), fmt.Sprintf("%d", totals[1]),
		fmt.Sprintf("%d", totals[2]), fmt.Sprintf("%d", totals[3]))
	return "Table 8: number of IO classes, methods and IO points\n" + t.String()
}

// Table9 renders the IO fault injection results.
func (x *Experiments) Table9() string {
	t := &tw{}
	t.row("System", "Runs", "Time(virt)", "Bug runs", "Distinct bugs (hits)")
	for _, r := range x.Systems {
		b := x.IO[r.Name()]
		if b == nil {
			continue
		}
		t.row(r.Name(),
			fmt.Sprintf("%d", b.Runs),
			b.VirtualTime.String(),
			fmt.Sprintf("%d", b.BugRuns),
			bugHits(b))
	}
	return "Table 9: results of IO fault injection\n" + t.String()
}

// Table10 renders the meta-info/crash-point census.
func (x *Experiments) Table10() string {
	t := &tw{}
	t.row("System", "Types", "Fields", "Access Points",
		"Meta Types", "Meta Fields", "Meta Access", "Static CPs", "Dynamic CPs")
	var tot [8]int
	for _, r := range x.Systems {
		res := x.Results[r.Name()]
		if res == nil {
			continue
		}
		total := r.Program().Census()
		meta := res.Analysis.Census()
		static := len(res.Static.Points)
		dyn := len(res.Dynamic.Points)
		t.row(r.Name(),
			fmt.Sprintf("%d", total.Types), fmt.Sprintf("%d", total.Fields),
			fmt.Sprintf("%d", total.AccessPoints),
			fmt.Sprintf("%d", meta.Types), fmt.Sprintf("%d", meta.Fields),
			fmt.Sprintf("%d", meta.AccessPoints),
			fmt.Sprintf("%d", static), fmt.Sprintf("%d", dyn))
		for i, v := range []int{total.Types, total.Fields, total.AccessPoints,
			meta.Types, meta.Fields, meta.AccessPoints, static, dyn} {
			tot[i] += v
		}
	}
	t.row("Total",
		fmt.Sprintf("%d", tot[0]), fmt.Sprintf("%d", tot[1]), fmt.Sprintf("%d", tot[2]),
		fmt.Sprintf("%d (%.2f%%)", tot[3], pct(tot[3], tot[0])),
		fmt.Sprintf("%d (%.2f%%)", tot[4], pct(tot[4], tot[1])),
		fmt.Sprintf("%d (%.2f%%)", tot[5], pct(tot[5], tot[2])),
		fmt.Sprintf("%d (%.2f%%)", tot[6], pct(tot[6], tot[2])),
		fmt.Sprintf("%d (%.2f%%)", tot[7], pct(tot[7], tot[2])))
	return "Table 10: types, fields, access points and crash points\n" + t.String()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Table11 renders per-phase times: wall-clock for analysis/profiling and
// both wall-clock and virtual time for testing.
func (x *Experiments) Table11() string {
	t := &tw{}
	t.row("System", "Analysis(wall)", "Profile(wall)", "Test(wall)", "Test(virtual)", "Points tested")
	for _, r := range x.Systems {
		res := x.Results[r.Name()]
		if res == nil {
			continue
		}
		t.row(r.Name(),
			res.Timing.Analysis.Round(time.Millisecond).String(),
			res.Timing.Profile.Round(time.Millisecond).String(),
			res.Timing.Test.Round(time.Millisecond).String(),
			res.Timing.VirtualTest.String(),
			fmt.Sprintf("%d", res.Summary.Tested))
	}
	return "Table 11: analysis and testing times (virtual time plays the paper's cluster hours)\n" + t.String()
}

// Table12 renders the optimization pruning counts.
func (x *Experiments) Table12() string {
	t := &tw{}
	t.row("System", "Constructor", "Unused", "Sanity check")
	for _, r := range x.Systems {
		res := x.Results[r.Name()]
		if res == nil {
			continue
		}
		p := res.Static.Pruned
		t.row(r.Name(), fmt.Sprintf("%d", p.Constructor), fmt.Sprintf("%d", p.Unused),
			fmt.Sprintf("%d", p.SanityCheck))
	}
	return "Table 12: crash points pruned by each optimization\n" + t.String()
}

// Timeouts renders the §4.1.3 timeout issues observed in the campaigns.
func (x *Experiments) Timeouts() string {
	var b strings.Builder
	b.WriteString("Timeout issues (§4.1.3): runs that finish but exceed 4x the fault-free duration\n")
	n := 0
	for _, r := range x.Systems {
		res := x.Results[r.Name()]
		if res == nil {
			continue
		}
		for _, rep := range res.Reports {
			if rep.Outcome == trigger.TimeoutIssue {
				n++
				fmt.Fprintf(&b, "  %-10s %-60s finished at %v (baseline %v)\n",
					r.Name(), rep.Dyn.Point, rep.Duration, res.Baseline.Duration)
			}
		}
	}
	fmt.Fprintf(&b, "  total: %d timeout issues\n", n)
	return b.String()
}

// FigMetaInfo reproduces Figs. 1/5(d)/6: it profiles the given system
// once and dumps the recorded runtime meta-info (node set + value→node
// associations).
func FigMetaInfo(r cluster.Runner, seed int64, scale int) string {
	res, matcher := core.AnalysisPhase(r, core.Options{Seed: seed, Scale: scale})
	st := stash.New(r.Hosts(), matcher, res.Analysis)
	logs := dslog.NewRoot()
	st.Attach(logs)
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, sim.Hour)

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5(d)/6: runtime meta-info of one %s run\n", r.Name())
	fmt.Fprintf(&b, "HashSet (nodes): %v\n", st.Nodes())
	b.WriteString("HashMap (value -> node):\n")
	assoc := st.Associations()
	keys := make([]string, 0, len(assoc))
	for k := range assoc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-40s %s\n", k, assoc[k])
	}
	fmt.Fprintf(&b, "(%d log instances seen, %d meta-info values forwarded)\n", st.Instances, st.Forwarded)
	return b.String()
}

// CampaignSummary renders the per-system detection summary (the §4.1.2
// headline).
func (x *Experiments) CampaignSummary() string {
	t := &tw{}
	t.row("System", "Dynamic CPs", "Tested", "Bug reports", "Distinct bugs", "Timeout issues", "Modes", "Silent?", "Seeded bugs detected")
	for _, r := range x.Systems {
		res := x.Results[r.Name()]
		if res == nil {
			continue
		}
		// The analytics columns are advisory: discovered failure modes
		// and anomalous-but-green (silent-failure suspect) runs. "-"
		// means analysis was off; they never feed Summary.Bugs.
		modes, silent := "-", "-"
		if res.Failmode != nil {
			modes = fmt.Sprintf("%d", res.Failmode.TotalModes())
			silent = fmt.Sprintf("%d", res.Failmode.TotalAnomalies())
		}
		t.row(r.Name(),
			fmt.Sprintf("%d", len(res.Dynamic.Points)),
			fmt.Sprintf("%d", res.Summary.Tested),
			fmt.Sprintf("%d", res.Summary.Bugs),
			fmt.Sprintf("%d", res.Summary.DistinctBugs),
			fmt.Sprintf("%d", res.Summary.TimeoutIssues),
			modes, silent,
			strings.Join(res.Summary.WitnessedBugs, " "))
	}
	// Mirror the §2/§4.1.1 ledger too.
	counts := registry.StudyCounts()
	return fmt.Sprintf("CrashTuner campaign summary (paper: 21 new bugs, 59/66 existing reproduced — here %d/%d existing reproduced in the registry)\n%s",
		counts.Reproduced, counts.Total, t.String())
}
