// Command crashtuner runs the full CrashTuner pipeline (Fig. 4) against
// one simulated system: log analysis, meta-info inference, static crash
// point analysis, profiling to dynamic crash points, then one
// fault-injection run per dynamic crash point with the online stash
// choosing the node to crash or shut down.
//
// Usage:
//
//	crashtuner -system yarn [-seed 11] [-scale 1] [-v]
//	crashtuner -system yarn -recovery [-restart-after 2000] [-second-fault-after 50]
//	crashtuner -system yarn -partition [-partition-mode drop] [-heal-after 5000]
//	crashtuner -system yarn -partition -guided               # consistency-guided cuts
//	crashtuner -system yarn -checkpoint yarn.ckpt            # interruptible
//	crashtuner -system yarn -checkpoint yarn.ckpt -resume    # pick up where it left off
//	crashtuner -system yarn -triage triage.jsonl             # record failing runs for cttriage
//	crashtuner -system yarn -analyze                         # post-campaign failure-mode analytics
//
// Fleet mode splits the campaign across processes: a coordinator plans
// the job space and leases shards over HTTP, workers execute them, and
// the output — tables, triage store, metrics — is byte-identical to the
// single-process campaign at any worker count:
//
//	crashtuner -serve :7070 -fleet-systems yarn,hdfs -fleet-dir ckpt/
//	crashtuner -worker http://127.0.0.1:7070             # as many as you like
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/triage"
	"repro/internal/trigger"
)

func main() {
	var (
		system     = flag.String("system", "yarn", "system under test: yarn, hdfs, hbase, zookeeper, cassandra")
		seed       = flag.Int64("seed", 11, "seed for every run of the campaign")
		scale      = flag.Int("scale", 1, "workload scale")
		verbose    = flag.Bool("v", false, "print every per-point report")
		fixed      = flag.Bool("figure", false, "also dump the runtime meta-info figure (Fig. 5d/6)")
		analyze    = flag.Bool("analyze", false, "run the failure-mode analytics after the campaign: cluster runs into modes, flag silent-failure suspects, and feed discovered modes to the -triage store (advisory; see ctanalyze)")
		recovery   = flag.Bool("recovery", false, "recovery-phase mode: restart the victim after the fault and apply the recovery oracles")
		restartMS  = flag.Int64("restart-after", 2000, "with -recovery: restart the victim this many ms (virtual) after the fault")
		secondMS   = flag.Int64("second-fault-after", 0, "with -recovery: inject a second fault this many ms (virtual) after the restart (0: none)")
		secondKind = flag.String("second-fault", "crash", "with -recovery: second fault kind (crash or shutdown)")
		partition  = flag.Bool("partition", false, "partition mode: cut the victim off the network instead of crashing it and apply the split-brain/stale-read/never-heals oracles")
		partMode   = flag.String("partition-mode", "drop", "with -partition: what happens to messages crossing the cut (drop, hold or delay)")
		partDelay  = flag.Int64("partition-delay", 0, "with -partition-mode delay: extra latency in ms (virtual; 0: default)")
		healMS     = flag.Int64("heal-after", 0, "with -partition: heal the cut this many ms (virtual) after the injection (0: default, negative: never)")
		holdOpen   = flag.Bool("hold-open", false, "with -partition and -recovery: keep the cut open through the victim's restart")
		guided     = flag.Bool("guided", false, "with -partition: consistency-guided injection at the first observed invariant violation")

		serveAddr  = flag.String("serve", "", "fleet coordinator mode: plan the campaigns and lease shards to workers on this address (e.g. :7070) instead of executing locally")
		fleetSys   = flag.String("fleet-systems", "", "with -serve: comma-separated systems to plan (default: the -system flag)")
		shardSize  = flag.Int("shard-size", 8, "with -serve: lease granularity in jobs")
		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "with -serve: how long a worker owns a shard without posting results before it is re-queued (a worker posts when its shard ends, and every third of this while a long shard runs)")
		fleetDir   = flag.String("fleet-dir", "", "with -serve: directory for per-shard JSONL checkpoints (resumable with -resume)")
		suppress   = flag.String("suppress", "", "with -serve: suppression file; the scheduler steers lease budget away from suppressed clusters")
		workerAddr = flag.String("worker", "", "fleet worker mode: lease and execute shards from the coordinator at this base URL")
		workerName = flag.String("worker-name", "", "with -worker: worker name in leases and logs (default: worker-<pid>)")
	)
	var fl cliflags.Flags
	fl.RegisterCampaign(flag.CommandLine, "")
	fl.RegisterTriage(flag.CommandLine, "")
	fl.RegisterObs(flag.CommandLine)
	fl.RegisterExtras(flag.CommandLine)
	flag.Parse()

	if *serveAddr != "" && *workerAddr != "" {
		fmt.Fprintln(os.Stderr, "-serve and -worker are mutually exclusive")
		os.Exit(2)
	}
	if *workerAddr != "" {
		if err := runWorker(*workerAddr, *workerName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Value flags are parsed whether or not their mode is on, so a bad
	// value fails loudly instead of being silently ignored.
	secondFault, ok := trigger.ParseSecondFaultKind(*secondKind)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -second-fault %q (want crash or shutdown)\n", *secondKind)
		os.Exit(2)
	}
	cutMode, ok := sim.ParsePartitionMode(*partMode)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -partition-mode %q (want drop, hold or delay)\n", *partMode)
		os.Exit(2)
	}

	var rc *trigger.RecoveryOptions
	if *recovery {
		rc = &trigger.RecoveryOptions{
			RestartDelay:     sim.Time(*restartMS) * sim.Millisecond,
			SecondFaultDelay: sim.Time(*secondMS) * sim.Millisecond,
			SecondFaultKind:  secondFault,
		}
	}
	var po *trigger.PartitionOptions
	if *partition {
		po = &trigger.PartitionOptions{
			Mode:     cutMode,
			Delay:    sim.Time(*partDelay) * sim.Millisecond,
			HoldOpen: *holdOpen,
			Guided:   *guided,
		}
		switch {
		case *healMS < 0:
			po.HealAfter = -1
		case *healMS > 0:
			po.HealAfter = sim.Time(*healMS) * sim.Millisecond
		}
	} else if *guided || *holdOpen {
		fmt.Fprintln(os.Stderr, "-guided and -hold-open require -partition")
		os.Exit(2)
	}

	if *serveAddr != "" {
		systems := strings.Split(*fleetSys, ",")
		if *fleetSys == "" {
			systems = []string{*system}
		}
		err := runServe(&fl, serveConfig{
			addr: *serveAddr, systems: systems, seed: *seed, scale: *scale,
			recovery: rc, partition: po, shardSize: *shardSize,
			leaseTTL: *leaseTTL, dir: *fleetDir, suppress: *suppress,
			verbose: *verbose,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	r, err := all.ByName(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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

	fmt.Printf("CrashTuner on %s (workload %s, seed %d, scale %d)\n\n",
		r.Name(), r.Workload(), *seed, *scale)

	opts := core.Options{
		Config:    rt.Config,
		Seed:      *seed,
		Scale:     *scale,
		Recovery:  rc,
		Partition: po,
		Analyze:   *analyze,
	}
	res := core.Run(r, opts)
	fmt.Printf("Phase 1 — analysis (%v):\n", res.Timing.Analysis.Round(time.Millisecond))
	fmt.Printf("  log patterns: %d, parsed instances: %d (unmatched %d)\n",
		res.Patterns, res.Parsed, res.Unmatched)
	meta := res.Analysis.Census()
	total := r.Program().Census()
	fmt.Printf("  meta-info: %d/%d types, %d/%d fields, %d/%d access points\n",
		meta.Types, total.Types, meta.Fields, total.Fields, meta.AccessPoints, total.AccessPoints)
	fmt.Printf("  static crash points: %d (pruned: ctor %d, unused %d, sanity %d)\n\n",
		len(res.Static.Points), res.Static.Pruned.Constructor,
		res.Static.Pruned.Unused, res.Static.Pruned.SanityCheck)

	fmt.Printf("Phase 2 — profiling (%v): %d dynamic crash points in %d iterations (final scale %d)\n\n",
		res.Timing.Profile.Round(time.Millisecond), len(res.Dynamic.Points),
		res.Dynamic.Iterations, res.Dynamic.FinalScale)

	fmt.Printf("Phase 3 — fault-injection testing (%v wall, %v virtual):\n",
		res.Timing.Test.Round(time.Millisecond), res.Timing.VirtualTest)
	printReports(res.Reports, *verbose)
	printSummary(res.Summary, *recovery, *partition)

	if res.Failmode != nil {
		fmt.Printf("\nFailure-mode analytics (advisory, not counted above):\n%s", res.Failmode.Text())
	}

	if *fixed {
		fmt.Println()
		fmt.Println(report.FigMetaInfo(r, *seed, *scale))
	}
}

// printReports renders the per-point report lines shared by the
// single-process and fleet paths; non-verbose output elides OK runs.
func printReports(reports []trigger.Report, verbose bool) {
	for _, rep := range reports {
		if !verbose && rep.Outcome == trigger.OK {
			continue
		}
		fmt.Printf("  %-9s %-70s", rep.Outcome, rep.Dyn.Point)
		if rep.Injected != nil {
			fmt.Printf(" [%s %s @%v]", rep.Injected.Kind, rep.Injected.Node, rep.Injected.At)
		}
		if len(rep.Restarted) > 0 {
			fmt.Printf(" restarted=%v", rep.Restarted)
		}
		if rep.Partitioned {
			healed := "open"
			if rep.Healed {
				healed = "healed"
			}
			fmt.Printf(" cut=%s", healed)
		}
		if rep.Guided {
			fmt.Printf(" guided@%d", rep.GuidedOrdinal)
		}
		if len(rep.Witnesses) > 0 {
			fmt.Printf(" bugs=%v", rep.Witnesses)
		}
		if rep.Reason != "" {
			fmt.Printf(" (%s)", rep.Reason)
		}
		fmt.Println()
	}
}

// printSummary renders the campaign summary lines shared by the
// single-process and fleet paths.
func printSummary(s trigger.Summary, recovery, partition bool) {
	fmt.Printf("\nSummary: %d points tested, %d bug reports (%d distinct), %d timeout issues; seeded bugs detected: %v\n",
		s.Tested, s.Bugs, s.DistinctBugs, s.TimeoutIssues, s.WitnessedBugs)
	if recovery {
		fmt.Printf("Recovery: %d runs restarted their victim; never-rejoined %d, rejoin-no-work %d, duplicate-incarnation %d, harness errors %d\n",
			s.Restarts, s.ByOutcome[trigger.NeverRejoined], s.ByOutcome[trigger.RejoinNoWork],
			s.ByOutcome[trigger.DuplicateIncarnation], s.HarnessErrors)
	}
	if partition {
		fmt.Printf("Partition: %d runs opened a cut (%d healed, %d guided); split-brain %d, stale-read %d, never-heals %d, harness errors %d\n",
			s.Partitions, s.Heals, s.Guided, s.ByOutcome[trigger.SplitBrain],
			s.ByOutcome[trigger.StaleRead], s.ByOutcome[trigger.NeverHeals], s.HarnessErrors)
	}
}

// serveConfig carries the coordinator-mode parameters from the flag
// surface to runServe.
type serveConfig struct {
	addr      string
	systems   []string
	seed      int64
	scale     int
	recovery  *trigger.RecoveryOptions
	partition *trigger.PartitionOptions
	shardSize int
	leaseTTL  time.Duration
	dir       string
	suppress  string
	verbose   bool
}

// runServe plans every requested system's campaign, serves the job
// space to fleet workers, and renders the same report tables the
// single-process path prints once the fleet drains.
func runServe(fl *cliflags.Flags, sc serveConfig) (err error) {
	rt, err := fl.Open()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rt.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	cfg := fleet.Config{
		Addr:      sc.addr,
		ShardSize: sc.shardSize,
		LeaseTTL:  sc.leaseTTL,
		Dir:       sc.dir,
		Resume:    fl.Resume,
		Sink:      rt.Config.Sink,
		Recorder:  rt.Config.Recorder,
	}
	// Seed the scheduler's "new cluster" judgement from the existing
	// triage store, and its noise list from the suppression file.
	if fl.Triage != "" {
		if _, err := os.Stat(fl.Triage); err == nil {
			ix, err := triage.Load(fl.Triage)
			if err != nil {
				return err
			}
			cfg.SeedIndex = ix
		}
	}
	if sc.suppress != "" {
		sup, err := triage.LoadSuppressions(sc.suppress)
		if err != nil {
			return err
		}
		cfg.Suppress = sup.Keys()
	}

	for _, name := range sc.systems {
		r, err := all.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		opts := core.Options{Seed: sc.seed, Scale: sc.scale, Recovery: sc.recovery, Partition: sc.partition}
		plan, err := core.PlanFleet(r, core.SharedArtifacts, opts)
		if err != nil {
			return err
		}
		fmt.Printf("planned %s: %d jobs (%s campaign", r.Name(), len(plan.Jobs), plan.Spec.Campaign)
		if plan.RetryScale > 0 {
			fmt.Printf(", not-hit retries at scale %d", plan.RetryScale)
		}
		fmt.Println(")")
		cfg.Plans = append(cfg.Plans, plan)
	}

	c, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return err
	}
	st := c.Stats()
	fmt.Printf("\nfleet coordinator on http://%s — %d jobs planned (%d restored from checkpoints)\n",
		c.Addr(), st.Total, st.Restored)
	fmt.Printf("start workers with: crashtuner -worker http://%s\n\n", c.Addr())

	results := c.Wait()
	for _, pr := range results {
		reports := make([]trigger.Report, len(pr.Results))
		for i, res := range pr.Results {
			reports[i] = trigger.ResultReport(res)
		}
		fmt.Printf("=== %s (%s campaign, seed %d, scale %d) ===\n",
			pr.Spec.System, pr.Spec.Campaign, pr.Spec.Seed, pr.Spec.Scale)
		printReports(reports, sc.verbose)
		printSummary(trigger.Summarize(reports), pr.Spec.Recovery != nil, pr.Spec.Partition != nil)
		fmt.Println()
	}
	st = c.Stats()
	fmt.Printf("Fleet: %d leases (%d jobs handed out), %d expiries, %d steals, %d duplicate results\n",
		st.Leases, st.LeasedJobs, st.Expiries, st.Steals, st.Duplicates)
	// Keep serving briefly so every live worker polls into the 410
	// "drained" signal and exits cleanly, instead of finding a closed
	// port and reporting the coordinator dead.
	c.AwaitWorkers(5 * time.Second)
	return c.Close()
}

// runWorker leases and executes shards until the coordinator drains.
func runWorker(base, name string) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	w := &fleet.Worker{
		Base:    strings.TrimRight(base, "/"),
		Name:    name,
		Factory: core.FleetExecutors(core.SharedArtifacts, all.ByName),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	return w.Run()
}
