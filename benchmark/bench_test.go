package main

import (
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestMain(m *testing.M) {
	code := m.Run()
	removeScratch()
	os.Exit(code)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func metricNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func specNames(ms []specMetric) []string {
	names := make([]string, 0, len(ms))
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload's golden prefix twice, once plain and
// once traced, and checks the contract between the program and
// BENCHMARK.json: the same workloads, every end-to-end metric from the
// plain run and every per-layer metric from the traced one, under
// well-formed names; the golden check passes; the two runs agree on
// every count and digest; and the layers add up.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, def := range workloads {
		if sp.Workloads[i].Name != def.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, sp.Workloads[i].Name, def.name)
		}
	}
	for _, name := range append(specNames(sp.EndToEnd), specNames(sp.PerLayer)...) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", name)
		}
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			if !nameRE.MatchString(def.name) {
				t.Errorf("workload name %q is not [A-Za-z0-9_.-]+ of at most 64", def.name)
			}
			plain := measure(def, goldenSeed, 0, true, false)
			pr := plain.result()
			if !pr.Correct {
				t.Fatalf("plain smoke run incorrect: %v", pr.Failures)
			}
			if got, want := metricNames(pr.Metrics), specNames(sp.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
			}
			for _, sm := range sp.EndToEnd {
				if mt := pr.Metrics[sm.Name]; mt.Unit != sm.Unit || mt.Value == 0 {
					t.Errorf("%s = %v %s, want a non-zero value in %s", sm.Name, mt.Value, mt.Unit, sm.Unit)
				}
			}

			traced := measure(def, goldenSeed, 0, true, true)
			tr := traced.result()
			tr.addLedger(traced, true)
			if !tr.Correct {
				t.Fatalf("traced smoke run incorrect: %v", tr.Failures)
			}
			if got, want := metricNames(tr.Metrics), specNames(sp.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			for _, sm := range sp.PerLayer {
				if mt := tr.Metrics[sm.Name]; mt.Unit != sm.Unit || math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
					t.Errorf("%s = %v %s, want a finite value in %s", sm.Name, mt.Value, mt.Unit, sm.Unit)
				}
			}
			if c := tr.Metrics["core.layer_coverage"].Value; c < 0.90 || c > 1.10 {
				t.Errorf("core.layer_coverage = %.3f, want 0.90-1.10", c)
			}

			// Counts and digests repeat exactly.
			if plain.runs != traced.runs || plain.bugs != traced.bugs || !reflect.DeepEqual(plain.distinctBugs(), traced.distinctBugs()) {
				t.Errorf("counts differ between two smoke runs: %d/%d/%v vs %d/%d/%v",
					plain.runs, plain.bugs, plain.distinctBugs(), traced.runs, traced.bugs, traced.distinctBugs())
			}
			for name, g := range plain.groups {
				h := traced.groups[name]
				if h == nil || *summary(g) != *summary(h) {
					t.Errorf("%s: golden-prefix digest differs between two smoke runs", name)
				}
			}
		})
	}
}

func summary(g *groupCheck) *groupCheck {
	return &groupCheck{Ops: g.Ops, Runs: g.Runs, Bugs: g.Bugs, Sum: g.Sum}
}

// TestHeldOutSeedPassesStructuralCheck confirms on the seed nothing was
// developed on that the output check needs no golden file to pass.
func TestHeldOutSeedPassesStructuralCheck(t *testing.T) {
	for _, def := range workloads {
		if r := measure(def, heldOutSeed, 0, true, false).result(); !r.Correct || r.Attempted == 0 {
			t.Errorf("%s at seed %d: attempted %d, failures %v", def.name, heldOutSeed, r.Attempted, r.Failures)
		}
	}
}

// TestGoldenMismatchFailsTheGroup pins the failure accounting: a group
// whose digest differs from golden.json counts all its prefix ops.
func TestGoldenMismatchFailsTheGroup(t *testing.T) {
	m := measure(pipelineColdDef, goldenSeed, 0, true, false)
	m.groups["yarn"].Sum = "0000"
	r := m.result()
	if want := len(pipelineColdScales) * pipelineColdDef.goldenBlocks; r.Failed != want || r.Correct {
		t.Errorf("failed = %d, correct = %v; want the %d yarn ops of the prefix failed", r.Failed, r.Correct, want)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([...], n=4) -> [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([10, 12, 11, 30], n=4) -> [10.25, 11.5, 25.5].
	if got, want := quartileSpread([]float64{10, 12, 11, 30}), (25.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		mt   specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower beyond bound", lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{"slower within bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"rate fell beyond bound", higher, steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{"rate rose", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"spread wider than bound", lower, []float64{80, 100, 120, 90, 110}, []float64{82, 100, 118, 91, 109}, "unresolved"},
		{"wide but every run better", lower, []float64{100, 120, 140, 110, 130}, []float64{50, 60, 70, 55, 65}, "ok"},
	} {
		if got, _, _ := verdict(c.mt, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	// op [0,100) > a [10,40) > a1 [15,25); op > b [50,90).
	s := &spans{all: []span{
		{Op: 1, ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{Op: 1, ID: 4, Parent: 1, Name: "b", Start: 50, End: 90},
	}}
	self := map[string]int64{}
	for _, lt := range s.selfTimes() {
		self[lt.name] = int64(lt.self)
	}
	if want := map[string]int64{"op": 30, "a": 20, "a1": 10, "b": 40}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := s.coverage(); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5 (leaves a1 and b over op)", got)
	}
}
