package repro

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/systems/all"
	"repro/internal/systems/yarn"
)

// expectedBugs is the seeded-bug ledger each system's campaign must
// reproduce (ZooKeeper intentionally has none, §4.1.2).
var expectedBugs = map[string][]string{
	"yarn":      {"MR-3858", "YARN-5918", "YARN-9164", "YARN-9193", "YARN-9238"},
	"hdfs":      {"HDFS-14216", "HDFS-14372"},
	"hbase":     {"HBASE-21740", "HBASE-22017", "HBASE-22041", "HBASE-22050"},
	"zookeeper": nil,
	"cassandra": {"CA-15131"},
}

// TestCampaignLedger is the headline integration test: one pipeline run
// per system detects exactly the seeded bugs.
func TestCampaignLedger(t *testing.T) {
	for _, r := range all.Runners() {
		res := core.Run(r, core.Options{Seed: 11, Scale: 1})
		want := expectedBugs[r.Name()]
		if !reflect.DeepEqual(stripTimeouts(res.Summary.WitnessedBugs), want) {
			t.Errorf("%s: witnessed %v, want %v", r.Name(), res.Summary.WitnessedBugs, want)
		}
	}
}

// stripTimeouts removes timeout-issue markers, which are reported
// separately from bugs (§4.1.3).
func stripTimeouts(ids []string) []string {
	var out []string
	for _, id := range ids {
		if id == "YARN-TIMEOUT-1" {
			continue
		}
		out = append(out, id)
	}
	return out
}

// TestSeedRobustness re-runs the Yarn campaign under different seeds:
// the detections are seed-independent because the injections are
// targeted, not timed.
func TestSeedRobustness(t *testing.T) {
	for _, seed := range []int64{1, 11, 777} {
		res := core.Run(&yarn.Runner{}, core.Options{Seed: seed, Scale: 1})
		got := stripTimeouts(res.Summary.WitnessedBugs)
		if !reflect.DeepEqual(got, expectedBugs["yarn"]) {
			t.Errorf("seed %d: witnessed %v, want %v", seed, got, expectedBugs["yarn"])
		}
	}
}

// TestScaleRobustness re-runs every campaign at double workload size.
func TestScaleRobustness(t *testing.T) {
	for _, r := range all.Runners() {
		res := core.Run(r, core.Options{Seed: 11, Scale: 2})
		got := stripTimeouts(res.Summary.WitnessedBugs)
		if !reflect.DeepEqual(got, expectedBugs[r.Name()]) {
			t.Errorf("%s scale 2: witnessed %v, want %v", r.Name(), got, expectedBugs[r.Name()])
		}
	}
}

// TestCampaignDeterminism asserts byte-for-byte identical reports across
// repeated runs with the same seed.
func TestCampaignDeterminism(t *testing.T) {
	a := core.Run(&yarn.Runner{}, core.Options{Seed: 11, Scale: 1})
	b := core.Run(&yarn.Runner{}, core.Options{Seed: 11, Scale: 1})
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		ra, rb := a.Reports[i], b.Reports[i]
		if ra.Dyn != rb.Dyn || ra.Outcome != rb.Outcome || ra.Duration != rb.Duration ||
			!reflect.DeepEqual(ra.Witnesses, rb.Witnesses) {
			t.Errorf("report %d differs:\n  %+v\n  %+v", i, ra, rb)
		}
	}
}

// TestExtensionsFaultFree drives the extension systems too.
func TestExtensionsFaultFree(t *testing.T) {
	for _, r := range all.Extensions() {
		res := core.Run(r, core.Options{Seed: 17, Scale: 1})
		if res.Summary.Tested == 0 {
			t.Errorf("%s: nothing tested", r.Name())
		}
	}
}

// TestParallelCampaignDeterminism runs the same campaign sequentially
// (workers=1) and with 8 workers: the Summary and every per-point Report
// must be identical, because each point is an independent,
// deterministically-seeded simulation and the engine indexes results by
// point position.
func TestParallelCampaignDeterminism(t *testing.T) {
	seq := core.Run(&yarn.Runner{}, core.Options{Config: campaign.Config{Workers: 1}, Seed: 11, Scale: 1})
	par := core.Run(&yarn.Runner{}, core.Options{Config: campaign.Config{Workers: 8}, Seed: 11, Scale: 1})
	if !reflect.DeepEqual(seq.Summary, par.Summary) {
		t.Errorf("summaries differ:\n  sequential: %+v\n  parallel:   %+v", seq.Summary, par.Summary)
	}
	if len(seq.Reports) != len(par.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(seq.Reports), len(par.Reports))
	}
	for i := range seq.Reports {
		ra, rb := seq.Reports[i], par.Reports[i]
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("report %d differs:\n  sequential: %+v\n  parallel:   %+v", i, ra, rb)
		}
	}
}

// TestParallelTablesByteIdentical renders every deterministic run-based
// table from a fully sequential experiment set, from a parallel one, and
// from a parallel one backed by the artifact cache: the output must
// match byte for byte (Table 11 is excluded — it reports wall-clock
// timings). The cached set runs the recovery and partition campaigns
// first, in ctbench's order, so the crash pipelines take the analysis,
// profile, baseline and snapshot plans those campaigns memoized.
func TestParallelTablesByteIdentical(t *testing.T) {
	render := func(workers int, cache *core.ArtifactCache) string {
		x := report.NewExperiments(11, 1, 30)
		x.Workers = workers
		x.Artifacts = cache
		if cache != nil {
			x.RunRecovery(nil)
			x.RunPartition(nil)
		}
		x.RunPipelines()
		x.RunBaselines()
		if cache == nil {
			x.RunRecovery(nil)
			x.RunPartition(nil)
		}
		return x.CampaignSummary() + x.Table5Live() + x.Table7() + x.Table8() +
			x.Table9() + x.Table10() + x.Table12() + x.Timeouts() +
			x.RecoveryTable() + x.PartitionTable()
	}
	seq := render(1, nil)
	par := render(8, nil)
	if seq != par {
		t.Errorf("tables differ between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	cached := render(8, core.NewArtifactCache())
	if seq != cached {
		t.Errorf("tables differ with the artifact cache enabled:\n--- uncached ---\n%s\n--- cached ---\n%s", seq, cached)
	}
}
