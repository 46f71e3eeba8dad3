// Command benchmark is the repository's benchmark: four workloads that
// drive the public functions of repro/internal/* from outside, seven
// end-to-end metrics per workload, and — in a traced run — a per-layer
// ledger timed around the calls into each layer. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory explains them.
//
//	bash benchmark/run.sh --workload pipeline-cold --seed 11 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --out benchmark/out/a.jsonl
//	bash benchmark/run.sh --workload campaign-families --trace 1
//	bash benchmark/run.sh --compare benchmark/out/a.jsonl benchmark/out/b.jsonl
//	bash benchmark/run.sh --update-golden
//
// The last line of a run's standard output is its result as one JSON
// object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// goldenSeed is the seed golden.json pins; develop on it, confirm on
// heldOutSeed.
const (
	goldenSeed  = 11
	heldOutSeed = 1009
)

// procs is the GOMAXPROCS every run sets: one client goroutine does the
// ops, the second processor takes the concurrent collector (and, on
// fleet-triage-analyze, the second worker).
const procs = 2

func main() { os.Exit(run()) }

// run is main proper; it returns the exit code so that the scratch
// directory is removed on every path.
func run() int {
	defer removeScratch()
	var (
		workload     = flag.String("workload", "", "workload to run: "+workloadNames()+", or all (each in a fresh process)")
		seed         = flag.Int64("seed", goldenSeed, "workload seed; op seeds are seed, seed+1, ...")
		seconds      = flag.Float64("seconds", 15, "how long the timed ops of a run add up to")
		trace        = flag.Int("trace", 0, "1: traced run (ops paired with their decompositions, spans, per-layer ledger); 0: end-to-end metrics")
		smoke        = flag.Bool("smoke", false, "run exactly the golden prefix of the op list, whatever -seconds says")
		out          = flag.String("out", "", "append the run's result line to this JSONL file, the input of -compare")
		compare      = flag.Bool("compare", false, "compare two -out files (arguments: a.jsonl b.jsonl) under the bounds of BENCHMARK.json")
		updateGolden = flag.Bool("update-golden", false, "regenerate golden.json from the golden prefixes at the golden seed")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return complain(2, "usage: -compare a.jsonl b.jsonl")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *updateGolden:
		if err := writeGolden(); err != nil {
			return complain(1, "update-golden: %v", err)
		}
		return 0
	case *workload == "all":
		return runAll(*seed, *seconds, *trace, *smoke, *out)
	}

	def, ok := workloadByName(*workload)
	if !ok {
		return complain(2, "unknown workload %q (want %s or all)", *workload, workloadNames())
	}
	budget := time.Duration(*seconds * float64(time.Second))
	m := measure(def, *seed, budget, *smoke, *trace != 0)
	res := m.result()
	if *trace != 0 {
		res.addLedger(m, *smoke)
		if err := m.tr.write(filepath.Join(outDir(), "trace-"+def.name+".jsonl")); err != nil {
			return complain(1, "%v", err)
		}
	}
	res.print(os.Stdout, m)
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			return complain(1, "%v", err)
		}
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		return complain(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
	return 0
}

func complain(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return code
}

// fatal is for errors below run that leave nothing to clean up but the
// scratch directory.
func fatal(code int, format string, args ...any) {
	removeScratch()
	os.Exit(complain(code, format, args...))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}

// runAll re-executes this binary once per workload, so allocation and
// collector state never carry over from one workload to the next.
func runAll(seed int64, seconds float64, trace int, smoke bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	code := 0
	for _, d := range workloads {
		args := []string{
			"-workload", d.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), fmt.Sprintf("-smoke=%v", smoke), "-out", out,
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", d.name, err)
			code = 1
		}
	}
	return code
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json. The benchmark keeps everything it writes
// below it, in benchmark/out.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		fatal(1, "%v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			fatal(1, "no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func benchDir() string { return filepath.Join(repoRoot(), "benchmark") }

// outDir is where traces and scratch files go; .gitignore names it.
func outDir() string {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	return dir
}

var scratch struct {
	once sync.Once
	dir  string
}

// scratchDir is this process's directory for temporary files, removed
// when run returns.
func scratchDir() string {
	scratch.once.Do(func() {
		dir, err := os.MkdirTemp(outDir(), "scratch-")
		if err != nil {
			fatal(1, "%v", err)
		}
		scratch.dir = dir
	})
	return scratch.dir
}

func removeScratch() {
	if scratch.dir != "" {
		os.RemoveAll(scratch.dir)
	}
}
