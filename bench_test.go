// Benchmarks regenerating every table and figure of the paper's
// evaluation (§2 and §4). Each benchmark measures the pipeline stage that
// produces the corresponding table and, where the table carries numbers,
// reports them as benchmark metrics so `go test -bench` output doubles as
// the experiment record. EXPERIMENTS.md maps each benchmark to the paper
// table it regenerates.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/probe"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
	"repro/internal/systems/yarn"
	"repro/internal/trigger"
)

// BenchmarkFigMetaInfoGraph regenerates Figs. 1/5(d)/6: profiling one
// Yarn run and building the runtime meta-info graph.
func BenchmarkFigMetaInfoGraph(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	for i := 0; i < b.N; i++ {
		_ = report.FigMetaInfo(r, 11, 1)
	}
}

// BenchmarkTable1StudiedBugs regenerates Table 1 from the registry.
func BenchmarkTable1StudiedBugs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = report.Table1()
	}
	c := registry.StudyCounts()
	b.ReportMetric(float64(c.TimingSensitive), "timing-sensitive")
	b.ReportMetric(float64(c.Reproduced), "reproduced")
}

// BenchmarkTable2MetaInfoTypes regenerates Table 2: the meta-info type
// inference for the Yarn example.
func BenchmarkTable2MetaInfoTypes(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	var n int
	for i := 0; i < b.N; i++ {
		res, _ := core.AnalysisPhase(r, core.Options{Seed: 11})
		n = res.Analysis.Census().Types
	}
	b.ReportMetric(float64(n), "meta-types")
}

// BenchmarkTable3CollKeywords exercises the Table 3 classifier.
func BenchmarkTable3CollKeywords(b *testing.B) {
	b.ReportAllocs()
	names := []string{"get", "putIfAbsent", "iterator", "containsKey", "copyInto", "offerLast"}
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			_ = ir.ClassifyCollMethod(n)
		}
	}
}

// BenchmarkTable4Systems regenerates Table 4 (and validates every model).
func BenchmarkTable4Systems(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = report.Table4()
	}
}

// BenchmarkTable5NewBugs regenerates Table 5's live column: the full
// CrashTuner campaign over all five systems, counting the seeded bugs
// detected.
func BenchmarkTable5NewBugs(b *testing.B) {
	b.ReportAllocs()
	var found int
	for i := 0; i < b.N; i++ {
		x := report.NewExperiments(11, 1, 0)
		x.Artifacts = core.SharedArtifacts
		x.RunPipelines()
		found = len(x.FoundBugs())
	}
	b.ReportMetric(float64(found), "distinct-bugs")
}

// BenchmarkTable6FixComplexity regenerates Table 6.
func BenchmarkTable6FixComplexity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = report.Table6()
	}
}

// BenchmarkTable7RandomInjection regenerates Table 7 on Yarn (50 runs
// per iteration; the paper uses 3000 per system).
func BenchmarkTable7RandomInjection(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	base := trigger.MeasureBaseline(r, 11, 1, 3, 0)
	var bugRuns int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := baseline.Random(r, base, baseline.Options{Seed: int64(i), Runs: 50})
		bugRuns = res.BugRuns
	}
	b.ReportMetric(float64(bugRuns), "bug-runs-per-50")
}

// BenchmarkTable8IOCensus regenerates Table 8's static side.
func BenchmarkTable8IOCensus(b *testing.B) {
	b.ReportAllocs()
	var statics int
	for i := 0; i < b.N; i++ {
		statics = 0
		for _, r := range all.Runners() {
			statics += r.Program().IOCensus().StaticIOs
		}
	}
	b.ReportMetric(float64(statics), "static-io-points")
}

// BenchmarkTable9IOInjection regenerates Table 9 on Yarn.
func BenchmarkTable9IOInjection(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	res, matcher := core.AnalysisPhase(r, core.Options{Seed: 11})
	_ = res
	base := trigger.MeasureBaseline(r, 11, 1, 3, 0)
	var bugRuns int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := baseline.IOInjection(r, matcher, base, baseline.Options{Seed: 11})
		bugRuns = out.BugRuns
	}
	b.ReportMetric(float64(bugRuns), "bug-runs")
}

// BenchmarkTable10Census regenerates Table 10: full static analysis and
// profiling over all systems.
func BenchmarkTable10Census(b *testing.B) {
	b.ReportAllocs()
	var static, dynamic int
	for i := 0; i < b.N; i++ {
		static, dynamic = 0, 0
		for _, r := range all.Runners() {
			res, _ := core.AnalysisPhase(r, core.Options{Seed: 11})
			core.ProfilePhase(r, res, core.Options{Seed: 11})
			static += len(res.Static.Points)
			dynamic += len(res.Dynamic.Points)
		}
	}
	b.ReportMetric(float64(static), "static-cps")
	b.ReportMetric(float64(dynamic), "dynamic-cps")
}

// BenchmarkTable11Times regenerates Table 11: the end-to-end pipeline
// per system (this benchmark's ns/op is the wall-clock column).
func BenchmarkTable11Times(b *testing.B) {
	b.ReportAllocs()
	for _, r := range all.Runners() {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var virt float64
			for i := 0; i < b.N; i++ {
				res := core.Run(r, core.Options{Seed: 11})
				virt = float64(res.Timing.VirtualTest)
			}
			b.ReportMetric(virt/1e6, "virtual-test-s")
		})
	}
}

// BenchmarkTable12Pruning regenerates Table 12: the optimization counts
// of the static analysis.
func BenchmarkTable12Pruning(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	var pruned int
	for i := 0; i < b.N; i++ {
		res, _ := core.AnalysisPhase(r, core.Options{Seed: 11})
		pruned = res.Static.Pruned.Total()
	}
	b.ReportMetric(float64(pruned), "pruned")
}

// BenchmarkTable13Kubernetes regenerates Table 13.
func BenchmarkTable13Kubernetes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = report.Table13()
	}
	b.ReportMetric(float64(len(registry.KubernetesBugs())), "k8s-bugs")
}

// BenchmarkReproExisting regenerates the §4.1.1 ledger.
func BenchmarkReproExisting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = report.ReproSummary()
	}
}

// BenchmarkTimeoutIssues regenerates the §4.1.3 list on Yarn.
func BenchmarkTimeoutIssues(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	var n int
	for i := 0; i < b.N; i++ {
		res := core.Run(r, core.Options{Seed: 11})
		n = res.Summary.TimeoutIssues
	}
	b.ReportMetric(float64(n), "timeout-issues")
}

// BenchmarkPipelineToy is the microbenchmark of the whole pipeline on
// the smallest system, for tracking harness overhead.
func BenchmarkPipelineToy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.Run(&toysys.Runner{}, core.Options{Seed: 7})
	}
}

// BenchmarkAnalysisPhase measures the offline analysis of one (system,
// seed, scale) through the runners of systems/all, whose program, index
// and matcher are constants of the system: what is left per op is the
// profiling run, the log parse and the inference over the model's own
// candidate fields. The first iteration pays the one build.
func BenchmarkAnalysisPhase(b *testing.B) {
	for _, r := range append(all.Runners(), all.Extensions()...) {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, _ = core.AnalysisPhase(r, core.Options{Seed: 11})
			}
			b.ReportMetric(float64(len(res.Static.Points)), "static-cps")
		})
	}
}

// inferInputs returns the toy model with n synthesised background
// classes and the parsed logs of one of its runs.
func inferInputs(n int) (*ir.Program, []*logparse.Match, []string) {
	r := &toysys.Runner{}
	p := r.Program()
	ir.SynthesizeBackground(p, n, 0xB6)
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: 11, Scale: 4, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, sim.Hour)
	return p, logparse.MatcherFor(p).ParseAll(logs.Records()).Matches, r.Hosts()
}

// BenchmarkInfer measures the meta-info inference alone on one model
// without and with a 400-class background corpus: the cost follows the
// model, not the corpus.
func BenchmarkInfer(b *testing.B) {
	for _, n := range []int{0, 400} {
		b.Run(fmt.Sprintf("background=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			p, matches, hosts := inferInputs(n)
			var a *metainfo.Analysis
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a = metainfo.Infer(p, matches, hosts)
			}
			b.ReportMetric(float64(len(a.Fields)), "meta-fields")
		})
	}
}

// TestAnalysisCostFollowsTheModel holds the two claims above as counts:
// a yarn analysis through systems/all allocates at least 4x less than
// the same phase through a directly constructed runner, which builds its
// 400-class program per call, and Infer allocates the same with 400
// background classes as with none (10 % of slack for map growth).
func TestAnalysisCostFollowsTheModel(t *testing.T) {
	sharedRunner, _ := all.ByName("yarn")
	analysis := func(r cluster.Runner) float64 {
		return testing.AllocsPerRun(5, func() { core.AnalysisPhase(r, core.Options{Seed: 11}) })
	}
	shared, direct := analysis(sharedRunner), analysis(&yarn.Runner{})
	t.Logf("allocs per yarn AnalysisPhase: shared program %.0f, program per call %.0f", shared, direct)
	if shared*4 > direct {
		t.Errorf("allocs/op reduction below 4x: shared %.0f, per call %.0f", shared, direct)
	}

	infer := func(n int) float64 {
		p, matches, hosts := inferInputs(n)
		return testing.AllocsPerRun(5, func() { metainfo.Infer(p, matches, hosts) })
	}
	bare, corpus := infer(0), infer(400)
	t.Logf("allocs per toysys Infer: no background %.0f, 400 classes %.0f", bare, corpus)
	if corpus > bare*1.1 {
		t.Errorf("Infer allocations grow with the corpus: %.0f at 400 background classes, %.0f at none", corpus, bare)
	}
}

// BenchmarkMatcherIngest measures the log-matching data plane in
// isolation: one MatchSession classifying every record of a Yarn
// profiling run, the inner loop of every injection run. One op is the
// whole record stream; allocs/op is the number the zero-allocation work
// is held to (rejections are free, matches cost only the Match value).
func BenchmarkMatcherIngest(b *testing.B) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	_, matcher := core.SharedArtifacts.AnalysisPhase(r, core.Options{Seed: 11, Scale: 1})
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: 11, Scale: 1, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, sim.Hour)
	records := logs.Records()
	if len(records) == 0 {
		b.Fatal("profiling run produced no records")
	}
	s := matcher.NewSession()
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched = 0
		for _, rec := range records {
			if s.Match(rec) != nil {
				matched++
			}
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
	b.ReportMetric(float64(matched), "matched/op")
}

// benchCampaign measures the Yarn injection campaign — one simulation
// per dynamic crash point — at a given worker-pool size. Analysis,
// profiling and the fault-free baseline run outside the timed loop, so
// ns/op is the testing phase alone (Table 11's dominant column).
func benchCampaign(b *testing.B, workers int) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	opts := core.Options{Seed: 11, Scale: 1}
	res, matcher := core.AnalysisPhase(r, opts)
	core.ProfilePhase(r, res, opts)
	base := trigger.MeasureBaseline(r, 11, 1, 3, 0)
	tester := &trigger.Tester{
		Runner: r, Analysis: res.Analysis, Matcher: matcher,
		Baseline: base, Seed: 11, Scale: 1, Config: campaign.Config{Workers: workers},
	}
	var bugs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports := tester.Campaign(res.Dynamic.Points)
		bugs = trigger.Summarize(reports).Bugs
	}
	b.ReportMetric(float64(len(res.Dynamic.Points)), "points")
	b.ReportMetric(float64(bugs), "bugs")
}

// BenchmarkCampaignSequential is the workers=1 special case: points are
// tested inline, in order.
func BenchmarkCampaignSequential(b *testing.B) { benchCampaign(b, 1) }

// benchCampaignSnapshot measures the same sequential Yarn campaign with
// runs forked from a snapshot plan (snapshot=true) or replayed from t=0
// (snapshot=false). This pair is the go-test way to read the
// fork-vs-full-replay ratio.
func benchCampaignSnapshot(b *testing.B, snapshot bool) {
	b.ReportAllocs()
	r, _ := all.ByName("yarn")
	opts := core.Options{Seed: 11, Scale: 2}
	res, matcher := core.SharedArtifacts.AnalysisPhase(r, opts)
	core.ProfilePhase(r, res, opts)
	tester := &trigger.Tester{
		Runner: r, Analysis: res.Analysis, Matcher: matcher,
		Baseline: trigger.MeasureBaseline(r, 11, 2, 3, 0),
		Seed:     11, Scale: 2, Config: campaign.Config{Workers: 1},
	}
	if snapshot {
		tester.Snapshots = tester.BuildSnapshotPlan()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tester.Campaign(res.Dynamic.Points)
	}
	b.ReportMetric(float64(len(res.Dynamic.Points)), "points")
}

// BenchmarkCampaignSnapshot forks every injection run from the
// reference-pass snapshot (the pipeline default).
func BenchmarkCampaignSnapshot(b *testing.B) { benchCampaignSnapshot(b, true) }

// BenchmarkCampaignFullReplay replays every injection run from t=0;
// compare against BenchmarkCampaignSnapshot for the fork-vs-full-replay
// ratio.
func BenchmarkCampaignFullReplay(b *testing.B) { benchCampaignSnapshot(b, false) }

// BenchmarkCampaignParallel fans the same campaign out across one worker
// per CPU; compare against BenchmarkCampaignSequential for the speedup
// (the outputs are byte-identical — see TestParallelCampaignDeterminism).
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0) }
