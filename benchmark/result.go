package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's record: the line -out appends and -compare reads.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Blocks     int               `json:"blocks"`
	Metrics    map[string]metric `json:"metrics"`
	// Counts and digests; they repeat exactly for a seed, so two
	// commits compare on them exactly.
	Runs         int                    `json:"runs"`
	Bugs         int                    `json:"bugs"`
	DistinctBugs []string               `json:"distinct_bugs"`
	Groups       map[string]*groupCheck `json:"golden_prefix"`
	Failures     []string               `json:"failures,omitempty"`
}

// result computes the end-to-end metrics of a measurement and applies
// the golden check.
func (m *measurement) result() *result {
	m.checkGolden()
	if m.failed > m.attempted {
		// Failures not tied to an op (a golden file that does not cover
		// the run) count as failed ops, but never more than were run.
		m.failed = m.attempted
	}
	ops := float64(len(m.opNS))
	r := &result{
		Workload: m.def.name, Seed: m.seed, Trace: m.tr != nil, GOMAXPROCS: procs,
		Attempted: m.attempted, Failed: m.failed, Blocks: m.blocks,
		Runs: m.runs, Bugs: m.bugs, DistinctBugs: m.distinctBugs(),
		Groups: m.groups, Failures: m.failures,
		Metrics: map[string]metric{
			"setup_s":         {median(m.setup), "s"},
			"ops_per_s":       {median(m.blockRate), "1/s"},
			"op_ms_p50":       {quantile(m.opNS, 0.50) / 1e6, "ms"},
			"op_ms_p95":       {quantile(m.opNS, 0.95) / 1e6, "ms"},
			"alloc_mb_per_op": {m.allocMB / ops, "MB"},
			"ok_share":        {1 - float64(m.failed)/float64(m.attempted), "ratio"},
			"distinct_bugs":   {sum(m.blockBugs) / float64(len(m.blockBugs)), "count"},
		},
	}
	r.Correct = r.Failed == 0
	return r
}

// contract is the object the last line of standard output carries.
func (r *result) contract() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print renders the run for a reader: every metric by name with its
// unit, the counts, and the outcome of the output check.
func (r *result) print(w io.Writer, m *measurement) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  GOMAXPROCS %d  closed loop, 1 client\n", r.Workload, r.Seed, mode, r.GOMAXPROCS)
	fmt.Fprintf(w, "blocks %d  ops timed %d (p95 has %d samples beyond it)  set-ups %d\n",
		r.Blocks, len(m.opNS), len(m.opNS)/20, len(m.setup))
	fmt.Fprintf(w, "block rates 1/s: p10 %.1f  p25 %.1f  p50 %.1f  p75 %.1f  p90 %.1f\n",
		quantile(m.blockRate, 0.10), quantile(m.blockRate, 0.25), quantile(m.blockRate, 0.50), quantile(m.blockRate, 0.75), quantile(m.blockRate, 0.90))
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mt := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, mt.Value, mt.Unit)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "host: peak RSS %.1f MB  collections %d  collector CPU share %.4f\n", peakRSSMB(), ms.NumGC, ms.GCCPUFraction)
	fmt.Fprintf(w, "injection runs %d  bug runs %d  distinct bugs over the whole run %d %v\n", r.Runs, r.Bugs, len(r.DistinctBugs), r.DistinctBugs)
	if r.Trace {
		m.tr.printSelfTimes(w)
	}
	fmt.Fprintf(w, "output check: attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
