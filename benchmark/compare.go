package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark reads back.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readResults loads the untraced result lines of an -out file, grouped
// by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than four values fall
// back to (max-min)/median; a single value has no spread to show.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	med := median(s)
	if m < 2 || med == 0 {
		return 0
	}
	if m < 4 {
		return (s[m-1] - s[0]) / med
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / med
}

func values(rs []*result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if mt, ok := r.Metrics[name]; ok {
			xs = append(xs, mt.Value)
		}
	}
	return xs
}

// verdict judges one end-to-end metric of one workload: regressed when
// b's median is worse than a's by more than the bound; unresolved when
// it is not but the run-to-run spread of either side is wider than the
// bound, unless every run of b reads better than every run of a.
func verdict(mt specMetric, a, b []float64) (status string, worse, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if mt.Better == "higher" {
			worse = -worse
		}
	}
	spread = quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	switch {
	case worse > mt.Bound:
		return "regressed", worse, spread
	case spread > mt.Bound && !allBetter(mt, a, b):
		return "unresolved", worse, spread
	}
	return "ok", worse, spread
}

func allBetter(mt specMetric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (mt.Better == "higher" && y <= x) || (mt.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// sameCounts reports whether runs of the same workload and seed in the
// two sets agree exactly on the golden-prefix digests and counts.
func sameCounts(a, b []*result) bool {
	key := func(r *result) string {
		g, _ := json.Marshal(r.Groups)
		return fmt.Sprintf("%v %d %s", r.Correct, r.Failed, g)
	}
	bySeed := map[int64]string{}
	for _, r := range a {
		bySeed[r.Seed] = key(r)
	}
	for _, r := range b {
		if k, ok := bySeed[r.Seed]; ok && k != key(r) {
			return false
		}
	}
	return true
}

// compareFiles prints one row per workload and returns the exit code:
// 1 if any metric regressed or a count differs, else 0.
func compareFiles(pathA, pathB string) int {
	sp, err := loadSpec(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		fatal(1, "%v", err)
	}
	a, err := readResults(pathA)
	if err != nil {
		fatal(1, "%v", err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(1, "%v", err)
	}
	code := 0
	fmt.Printf("a = %s, b = %s; each cell: status (b's median worse by, widest quartile spread), against the metric's bound\n", pathA, pathB)
	for _, w := range sp.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-22s missing from one of the sets\n", w.Name)
			code = 1
			continue
		}
		fmt.Printf("%-22s runs %d/%d", w.Name, len(ra), len(rb))
		for _, mt := range sp.EndToEnd {
			status, worse, spread := verdict(mt, values(ra, mt.Name), values(rb, mt.Name))
			if status == "regressed" {
				code = 1
			}
			fmt.Printf("  %s=%s(%+.1f%% ±%.1f%% /%.4g%%)", mt.Name, status, 100*worse, 100*spread, 100*mt.Bound)
		}
		if sameCounts(ra, rb) {
			fmt.Printf("  counts=identical\n")
		} else {
			fmt.Printf("  counts=DIFFER\n")
			code = 1
		}
	}
	return code
}
