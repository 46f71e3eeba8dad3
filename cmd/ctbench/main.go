// Command ctbench regenerates every table and figure of the paper's
// evaluation from this reproduction: the census tables come from the
// registry, the experiment tables from live pipeline and baseline runs
// over all seven simulated systems.
//
// Usage:
//
//	ctbench                 # everything
//	ctbench -exp table10    # one experiment
//	ctbench -exp list       # list experiment ids
//
// Everything that reads no fault parameter — the analysis, the profile,
// the fault-free baseline and the snapshot plans — is memoized per
// system through core.SharedArtifacts, so the crash, recovery and
// partition tables pay it once and only their injection runs each;
// with -artifact-cache=false every pipeline runs on a cache of its own.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/trigger"
)

var experiments = []string{
	"fig-metainfo", "table1", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "table9", "table10", "table11",
	"table12", "table13", "repro", "timeouts", "summary", "recovery",
	"partition",
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -exp list)")
		seed       = flag.Int64("seed", 11, "seed")
		scale      = flag.Int("scale", 1, "workload scale")
		randomRuns = flag.Int("random-runs", 200, "runs per system for the random baseline (paper: 3000)")
		useCache   = flag.Bool("artifact-cache", true, "memoize analysis, profile, baseline and snapshot plans per system (output is identical either way)")
		restartMS  = flag.Int64("restart-after", 2000, "recovery experiment: restart the victim this many ms (virtual) after the fault")
		secondMS   = flag.Int64("second-fault-after", 0, "recovery experiment: inject a second fault this many ms (virtual) after the restart (0: none)")
		secondKind = flag.String("second-fault", "crash", "recovery experiment: second fault kind (crash or shutdown)")
	)
	var fl cliflags.Flags
	fl.RegisterCampaign(flag.CommandLine, "checkpoint directory: campaigns append per-system JSONL checkpoints under it")
	fl.RegisterTriage(flag.CommandLine, "")
	fl.RegisterObs(flag.CommandLine)
	fl.RegisterExtras(flag.CommandLine)
	flag.Parse()

	if *exp == "list" {
		fmt.Println(strings.Join(experiments, "\n"))
		return
	}
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "unknown -exp %q (see -exp list)\n", *exp)
		os.Exit(2)
	}
	want := func(id string) bool { return *exp == "all" || *exp == id }

	// -second-fault is parsed whatever -exp says, so a bad value fails
	// loudly instead of being silently ignored.
	secondFault, ok := trigger.ParseSecondFaultKind(*secondKind)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -second-fault %q (want crash or shutdown)\n", *secondKind)
		os.Exit(2)
	}
	var rc *trigger.RecoveryOptions
	if want("recovery") {
		rc = &trigger.RecoveryOptions{
			RestartDelay:     sim.Time(*restartMS) * sim.Millisecond,
			SecondFaultDelay: sim.Time(*secondMS) * sim.Millisecond,
			SecondFaultKind:  secondFault,
		}
	}

	// Observability stack: metrics always feed the default registry;
	// -progress adds the human-readable stderr sink, -trace the JSONL
	// tracer, -obs-addr the scrape endpoint over all of it.
	rt, err := fl.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer func() {
		if err := rt.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()

	// Static tables need no runs.
	if want("table1") {
		fmt.Println(report.Table1())
	}
	if want("table3") {
		fmt.Println(report.Table3())
	}
	if want("table4") {
		fmt.Println(report.Table4())
	}
	if want("table6") {
		fmt.Println(report.Table6())
	}
	if want("table13") {
		fmt.Println(report.Table13())
	}
	if want("repro") {
		fmt.Println(report.ReproSummary())
	}

	needPipelines := false
	for _, id := range []string{"table2", "table5", "table7", "table8", "table9",
		"table10", "table11", "table12", "timeouts", "summary"} {
		if want(id) {
			needPipelines = true
		}
	}
	if want("fig-metainfo") {
		r, err := all.ByName("yarn")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(report.FigMetaInfo(r, *seed, *scale))
	}
	needPartition := want("partition")
	if !needPipelines && rc == nil && !needPartition {
		return
	}

	x := report.NewExperiments(*seed, *scale, *randomRuns)
	x.Workers = fl.Workers
	if *useCache {
		x.Artifacts = core.SharedArtifacts
	}
	if fl.Checkpoint != "" {
		if err := os.MkdirAll(fl.Checkpoint, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		x.CheckpointDir = fl.Checkpoint
		x.Resume = fl.Resume
	}
	x.Sink = rt.Config.Sink
	x.Recorder = rt.Config.Recorder
	if rc != nil {
		fmt.Fprintln(os.Stderr, "running recovery-phase campaigns on all systems...")
		x.RunRecovery(rc)
		fmt.Println(x.RecoveryTable())
	}
	if needPartition {
		fmt.Fprintln(os.Stderr, "running partition-phase campaigns on all systems...")
		x.RunPartition(nil)
		fmt.Println(x.PartitionTable())
	}
	if !needPipelines {
		return
	}
	fmt.Fprintln(os.Stderr, "running CrashTuner pipelines on all systems...")
	x.RunPipelines()
	if want("table2") {
		fmt.Println(report.Table2(x.Results["yarn"].Analysis))
	}
	if want("table5") {
		fmt.Println(x.Table5Live())
	}
	if want("table10") {
		fmt.Println(x.Table10())
	}
	if want("table11") {
		fmt.Println(x.Table11())
	}
	if want("table12") {
		fmt.Println(x.Table12())
	}
	if want("timeouts") {
		fmt.Println(x.Timeouts())
	}
	if want("summary") {
		fmt.Println(x.CampaignSummary())
	}
	if want("table7") || want("table8") || want("table9") {
		fmt.Fprintln(os.Stderr, "running baselines (random + IO injection)...")
		x.RunBaselines()
		if want("table7") {
			fmt.Println(x.Table7())
		}
		if want("table8") {
			fmt.Println(x.Table8())
		}
		if want("table9") {
			fmt.Println(x.Table9())
		}
	}
}
