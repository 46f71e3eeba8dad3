package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dslog"
	"repro/internal/fleet"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// The per-layer ledger of a traced run. Every number is taken from
// outside: a wall clock around a public call into the layer, a count the
// call returns, or a delta of an obs.Default counter read by name. A
// ledger pass is the seven systems once, at the workload's scale and
// the run's seed; a metric without a system suffix is summed over the
// seven systems, and times are medians over the passes. README.md lists
// which end-to-end metric each one should move, on which workload.

// ledgerPasses is how often each timed probe repeats; the median is
// reported.
const ledgerPasses = 3

type ledger struct {
	seed    int64
	scale   int
	passes  int
	iters   int // loop length of the micro-probes
	scratch string
	out     map[string]metric
}

func (l *ledger) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// addLedger replaces the result's metrics with the per-layer ones.
func (r *result) addLedger(m *measurement, smoke bool) {
	l := &ledger{seed: m.seed, scale: m.def.scale, passes: ledgerPasses, iters: 20000, scratch: scratchDir(), out: map[string]metric{}}
	if smoke {
		l.passes, l.iters = 1, 2000
	}

	// The layers have to add up: the leaf spans of the decomposed ops
	// over the op spans. And tracing has to be cheap: each decomposed op
	// against the same op run plain, just before it, on fresh state.
	l.set("core.layer_coverage", m.tr.coverage(), "ratio")
	ratios := make([]float64, len(m.tracedNS))
	for i := range ratios {
		ratios[i] = m.tracedNS[i] / m.opNS[i]
	}
	l.set("core.trace_overhead", median(ratios)-1, "ratio")

	l.pipeline()
	if err := l.simulator(); err != nil {
		m.fail(-1, "ledger: %v", err)
	}
	l.observation()
	l.baselines()
	l.campaignEngine()
	if err := l.fleet(); err != nil {
		m.fail(-1, "ledger: fleet: %v", err)
	}
	if err := l.artifacts(); err != nil {
		m.fail(-1, "ledger: %v", err)
	}
	l.host()
	r.Metrics = l.out
	r.Failed, r.Failures = m.failed, m.failures
	r.Correct = r.Failed == 0
}

// counter reads an instrument of the program's default registry by name.
func counter(name string) float64 { return float64(obs.Default.Counter(name).Value()) }

// pipeline times the uncached pipeline, decomposed, on each system.
func (l *ledger) pipeline() {
	names := []string{
		"core.analysis", "core.profile", "core.test",
		"ir.program", "logparse.build", "logparse.parse", "metainfo.infer", "crashpoint.analyze",
		"profiler.collect", "trigger.baseline", "trigger.plan", "trigger.campaign", "op",
	}
	// total[name] sums, over the systems, the median over passes of the
	// time the spans of that name took in one decomposed run.
	total := map[string]float64{}
	var records, unmatched, candidates, pruned, iterations, points float64
	tp := newTestProbe()
	forks := counter("crashtuner_clone_forks_total")
	fallbacks := counter("crashtuner_clone_fallbacks_total") + counter("crashtuner_snapshot_invalidations_total")
	for _, r := range systems() {
		perPass := map[string][]float64{}
		var res *core.Result
		for p := 0; p < l.passes; p++ {
			tr := newSpans()
			tr.time("op", func() { res = decomposedRun(tr, r, pipelineOptions(l.seed, l.scale), nil, tp) })
			for _, name := range names {
				perPass[name] = append(perPass[name], sum(tr.durations(name)))
			}
		}
		for _, name := range names {
			total[name] += median(perPass[name])
		}
		l.set("core.analysis_ms."+r.Name(), median(perPass["core.analysis"])/1e6, "ms")
		l.set("core.profile_ms."+r.Name(), median(perPass["core.profile"])/1e6, "ms")
		l.set("core.test_ms."+r.Name(), median(perPass["core.test"])/1e6, "ms")
		records += float64(res.Parsed + res.Unmatched)
		unmatched += float64(res.Unmatched)
		candidates += float64(res.Static.Candidates)
		pruned += float64(res.Static.Pruned.Total())
		iterations += float64(res.Dynamic.Iterations)
		points += float64(len(res.Dynamic.Points))
	}
	forks = counter("crashtuner_clone_forks_total") - forks
	fallbacks = counter("crashtuner_clone_fallbacks_total") + counter("crashtuner_snapshot_invalidations_total") - fallbacks
	runs := float64(tp.runs)

	l.set("ir.program_ms", total["ir.program"]/1e6, "ms")
	l.set("logparse.build_us", total["logparse.build"]/1e3, "us")
	l.set("logparse.parse_ns_per_record", total["logparse.parse"]/records, "ns")
	l.set("logparse.unmatched_share", unmatched/records, "ratio")
	l.set("metainfo.infer_ms", total["metainfo.infer"]/1e6, "ms")
	l.set("crashpoint.analyze_us", total["crashpoint.analyze"]/1e3, "us")
	l.set("crashpoint.pruned_share", pruned/candidates, "ratio")
	l.set("profiler.collect_ms", total["profiler.collect"]/1e6, "ms")
	l.set("profiler.iterations", iterations, "count")
	l.set("profiler.dynamic_points", points, "count")
	l.set("trigger.baseline_ms", total["trigger.baseline"]/1e6, "ms")
	l.set("trigger.plan_ms", total["trigger.plan"]/1e6, "ms")
	l.set("trigger.plan_rungs", float64(tp.rungs)/float64(l.passes), "count")
	// The per-run numbers are means over every injection run of every
	// pass; the campaign spans were summed the same way.
	passRuns := runs / float64(l.passes)
	l.set("trigger.runs_per_s", passRuns/(total["trigger.campaign"]/1e9), "1/s")
	l.set("trigger.run_us", total["trigger.campaign"]/1e3/passRuns, "us")
	l.set("trigger.setup_us", tp.wall["setup"]/1e3/runs, "us")
	l.set("trigger.drive_us", tp.wall["drive"]/1e3/runs, "us")
	l.set("trigger.oracle_us", tp.wall["oracle"]/1e3/runs, "us")
	l.set("trigger.clone_fork_share", forks/runs, "ratio")
	l.set("trigger.fallbacks", fallbacks, "count")
	l.set("trigger.fixed_cost_share", (total["trigger.baseline"]+total["trigger.plan"]+total["profiler.collect"])/total["op"], "ratio")

	// ir.program_alloc_mb: what building the seven IR models allocates.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range systems() {
		r.Program()
	}
	runtime.ReadMemStats(&after)
	l.set("ir.program_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")

	// Guided campaigns are reached through core.Options alone; the
	// reports say how many injections rode on an observed violation.
	guided := 0
	for _, r := range systems() {
		opts := pipelineOptions(l.seed, l.scale)
		opts.Partition = &trigger.PartitionOptions{Guided: true}
		guided += core.Run(r, opts).Summary.Guided
	}
	l.set("partition.guided_points", float64(guided), "count")
}

// faultFree builds and drives one fault-free run with the full
// observation pipeline attached, as the analysis phase does.
func faultFree(r cluster.Runner, seed int64, scale int) (cluster.Run, *dslog.Root, time.Duration) {
	start := time.Now()
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, runDeadline)
	return run, logs, time.Since(start)
}

// perCall times fn in batches of n calls, as many batches as the ledger
// has passes, and returns the median batch's nanoseconds per call.
func (l *ledger) perCall(n int, fn func(i int)) float64 {
	var batches []float64
	for p := 0; p < l.passes; p++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		batches = append(batches, float64(time.Since(start))/float64(n))
	}
	return median(batches)
}

// simulator times whole fault-free runs, and Clone and Fingerprint at
// each run's midpoint.
func (l *ledger) simulator() error {
	const clones = 32
	var steps, wall, cloneNS, cloneKB, fpNS float64
	for _, r := range systems() {
		var run cluster.Run
		runNS := l.perCall(8, func(int) { run, _, _ = faultFree(r, l.seed, l.scale) })
		n := run.Engine().Steps()
		steps += float64(n)
		wall += runNS
		l.set("systems.run_ms."+r.Name(), runNS/1e6, "ms")

		// Park a second run at half its events, the way a snapshot plan
		// parks a rung, and copy it.
		cfg := cluster.Config{Seed: l.seed, Scale: l.scale, Probe: probe.New(), Logs: dslog.NewRoot()}
		mid := r.NewRun(cfg)
		e := mid.Engine()
		e.OnStep(func(sim.Time) {
			if mid.Status() != cluster.Running {
				e.Stop()
			}
		})
		mid.Start()
		e.MaxSteps = n / 2
		e.Run(runDeadline)
		cloned := true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cloneNS += l.perCall(clones, func(int) {
			if _, ok := cluster.Clone(mid, cfg); !ok {
				cloned = false
			}
		})
		runtime.ReadMemStats(&after)
		if !cloned {
			return fmt.Errorf("%s: run does not clone at its midpoint", r.Name())
		}
		cloneKB += float64(after.TotalAlloc-before.TotalAlloc) / float64(clones*l.passes) / 1024
		fpNS += l.perCall(l.iters, func(int) { e.Fingerprint() })
	}
	nsys := float64(len(systems()))
	l.set("sim.events_per_s", steps/(wall/1e9), "1/s")
	l.set("sim.events_per_op", steps/nsys, "count")
	l.set("sim.clone_us", cloneNS/nsys/1e3, "us")
	l.set("sim.clone_kb", cloneKB/nsys, "KB")
	l.set("sim.fingerprint_ns", fpNS/nsys, "ns")
	return nil
}

// observation times the layers that watch a run: the log renderer, the
// probe dispatch, the stash, and the partition tracker, the last two
// over the records of each system's fault-free run.
func (l *ledger) observation() {
	e := sim.NewEngine(l.seed)
	node := e.AddNode("node1", 7000).ID
	var lg *dslog.Logger
	l.set("dslog.ns_per_record", l.perCall(l.iters, func(i int) {
		if i == 0 {
			// A fresh root per batch, so every batch grows the same slice.
			lg = dslog.NewRoot().Logger(e, node, "Scheduler")
		}
		lg.Info("Assigned container ", "container_0001_01_000002", " on host ", node, " attempt ", i)
	}), "ns")

	pb := probe.New()
	hits := 0
	pb.OnAccess = func(probe.Access) { hits++ }
	pb.Enter(node, "Scheduler.handle")
	pb.Enter(node, "Scheduler.completeContainer")
	l.set("probe.access_ns", l.perCall(l.iters, func(int) {
		pb.PreRead(node, "Scheduler.completeContainer#3", "container_0001_01_000002")
	}), "ns")

	var records, processNS, trackerNS, queryNS, snapNS float64
	for _, r := range systems() {
		_, logs, _ := faultFree(r, l.seed, l.scale)
		recs := logs.Records()
		program := r.Program()
		matcher := logparse.NewMatcher(logparse.ExtractPatterns(program))
		analysis := metainfo.Infer(program, matcher.ParseAll(recs).Matches, r.Hosts())
		records += float64(len(recs))

		var st *stash.Stash
		processNS += float64(len(recs)) * l.perCall(len(recs), func(i int) {
			if i == 0 {
				st = stash.New(r.Hosts(), matcher, analysis)
			}
			st.Process(recs[i])
		})
		var values [][]string
		for v := range st.Associations() {
			values = append(values, []string{v})
		}
		if len(values) > 0 {
			queryNS += l.perCall(len(values), func(i int) { st.QueryAny(values[i]) })
		}
		snapNS += l.perCall(l.iters/20, func(int) { st.Snapshot() })

		var tk *partition.Tracker
		trackerNS += float64(len(recs)) * l.perCall(len(recs), func(i int) {
			if i == 0 {
				tk = partition.NewTracker(r.Hosts(), matcher, analysis)
				tk.Watch(partition.AllKinds()...)
			}
			tk.Process(recs[i])
		})
	}
	nsys := float64(len(systems()))
	l.set("stash.process_ns_per_record", processNS/records, "ns")
	l.set("stash.query_ns", queryNS/nsys, "ns")
	l.set("stash.snapshot_ns", snapNS/nsys, "ns")
	l.set("partition.tracker_ns_per_record", trackerNS/records, "ns")
}

// baselines times the two baseline executors of Tables 7 and 9.
func (l *ledger) baselines() {
	var randomRuns, randomNS, ioRuns, ioNS, ioPoints, bugRuns float64
	for _, r := range systems() {
		matcher := logparse.NewMatcher(logparse.ExtractPatterns(r.Program()))
		base := trigger.MeasureBaseline(r, l.seed, l.scale, baselineRuns, runDeadline)
		opts := baseline.Options{Config: campaign.Config{Workers: 1}, Seed: l.seed, Scale: l.scale, Runs: baselineRandomRuns}
		var random, io *baseline.Result
		randomNS += l.perCall(1, func(int) { random = baseline.Random(r, base, opts) })
		ioNS += l.perCall(1, func(int) { io = baseline.IOInjection(r, matcher, base, opts) })
		randomRuns += float64(random.Runs)
		ioRuns += float64(io.Runs)
		bugRuns += float64(random.BugRuns + io.BugRuns)
		ioPoints += float64(len(baseline.CollectIOPoints(r, matcher, l.seed, l.scale, runDeadline)))
	}
	l.set("baseline.random_runs_per_s", randomRuns/(randomNS/1e9), "1/s")
	l.set("baseline.io_runs_per_s", ioRuns/(ioNS/1e9), "1/s")
	l.set("baseline.io_points", ioPoints, "count")
	l.set("baseline.bug_run_share", bugRuns/(randomRuns+ioRuns), "ratio")
}

// sampleResult is a wire result of ordinary size for the checkpoint,
// store and trace probes.
func sampleResult(i int) fleet.Result {
	return fleet.Result{
		Job: fleet.Job{
			System: "yarn", Campaign: "test", Run: i, Seed: 11, Scale: 4,
			Point:    "yarn.resourcemanager.Scheduler.completeContainer#3",
			Scenario: "pre-read",
			Stack:    "Scheduler.completeContainer<Scheduler.handle<ResourceManager.dispatch",
		},
		Outcome:    "job-failure",
		Failing:    true,
		Target:     "node1:7000",
		Fault:      &fleet.Fault{Kind: "shutdown", Node: "node1:7000", At: 1234 * sim.Millisecond},
		Duration:   42 * sim.Second,
		Exceptions: []string{"NullPointerException at Scheduler.completeContainer(container_0001_01_00000" + strconv.Itoa(i%10) + ")"},
		Witnesses:  []string{"YARN-9164"},
		Reason:     "application failed",
	}
}

// campaignEngine times the pool's per-job dispatch over a no-op and a
// checkpoint append.
func (l *ledger) campaignEngine() {
	l.set("campaign.dispatch_ns", l.perCall(1, func(int) {
		campaign.Run(l.iters, campaign.Options[int]{Workers: 1}, func(i int) int { return i })
	})/float64(l.iters), "ns")

	appends := l.iters / 10
	w := campaign.NewCheckpointWriter[fleet.Result](&campaign.CheckpointConfig{Path: filepath.Join(l.scratch, "checkpoint.jsonl")})
	start := time.Now()
	for i := 0; i < appends; i++ {
		w.Append(i, sampleResult(i))
	}
	w.Close()
	l.set("campaign.checkpoint_append_us", float64(time.Since(start))/1e3/float64(appends), "us")
}

// fleet runs instrumented rounds of the fleet workload's round at the
// ledger's scale, and the same jobs in-process.
func (l *ledger) fleet() error {
	cache := core.NewArtifactCache()
	pr, err := planRound(cache, l.seed, l.scratch, l.scale)
	if err != nil {
		return err
	}
	tr := newSpans()
	fc := &fleetCounters{}
	var jobs, serveNS, drainNS, readNS, traceSpans float64
	var last roundStats
	for p := 0; p < l.passes; p++ {
		_, rs, err := fleetRound(tr, fc, cache, pr, l.scratch)
		if err != nil {
			return err
		}
		jobs += float64(rs.stats.Done)
		serveNS += rs.serveNS
		drainNS += rs.drainNS
		readNS += rs.readTraceNS
		traceSpans += float64(rs.spans)
		last = rs
	}
	rounds := float64(l.passes)
	l.set("fleet.jobs_per_s", jobs/(serveNS/1e9), "1/s")
	l.set("fleet.factory_ms", float64(fc.factoryNS.Load())/1e6/rounds, "ms")
	l.set("fleet.execute_us", float64(fc.executeNS.Load())/1e3/float64(fc.executes.Load()), "us")
	// What the workers' time went to that was neither building an
	// executor nor running a job: leasing, posting, encoding, waiting.
	idle := fleetWorkers*serveNS - float64(fc.executeNS.Load()) - float64(fc.factoryNS.Load())
	l.set("fleet.overhead_us_per_job", idle/1e3/jobs, "us")
	l.set("fleet.http_requests_per_job", float64(fc.requests.Load())/jobs, "count")
	l.set("fleet.wire_kb_per_job", float64(fc.wireBytes.Load())/1024/jobs, "KB")
	l.set("fleet.leases", float64(last.stats.Leases), "count")
	l.set("fleet.steals", float64(last.stats.Steals), "count")
	l.set("fleet.expiries", float64(last.stats.Expiries), "count")
	l.set("fleet.duplicates", float64(last.stats.Duplicates), "count")
	l.set("fleet.drain_tail_ms", drainNS/1e6/rounds, "ms")

	l.set("triage.load_ms", median(tr.durations("triage.load"))/1e6, "ms")
	l.set("triage.cluster_ms", median(tr.durations("triage.cluster"))/1e6, "ms")
	l.set("triage.clusters", float64(last.clusters), "count")
	l.set("failmode.load_ms", median(tr.durations("failmode.load"))/1e6, "ms")
	l.set("failmode.fit_ms", median(tr.durations("failmode.fit"))/1e6, "ms")
	l.set("failmode.score_ms", median(tr.durations("failmode.score"))/1e6, "ms")
	l.set("failmode.modes", float64(last.modes), "count")
	l.set("failmode.suspects", float64(last.suspects), "count")
	l.set("obs.read_trace_ms", readNS/1e6/rounds, "ms")
	l.set("obs.spans_per_run", traceSpans/jobs, "count")

	// The wave-1 jobs of the same plans through the in-process loop, on
	// executors the same factory builds.
	factory := core.FleetExecutors(cache, all.ByName)
	var inprocJobs, inprocNS float64
	for _, plan := range pr.plans {
		x, err := factory(plan.Spec, plan.Spec.Scale)
		if err != nil {
			return err
		}
		t, ok := x.(*trigger.Tester)
		if !ok {
			return fmt.Errorf("core.FleetExecutors built a %T, not the trigger.Tester whose RunJobs is the in-process loop", x)
		}
		t.Workers = 1
		start := time.Now()
		t.RunJobs(plan.Jobs)
		inprocNS += float64(time.Since(start))
		inprocJobs += float64(len(plan.Jobs))
	}
	l.set("fleet.inproc_jobs_per_s", inprocJobs/(inprocNS/1e9), "1/s")
	return nil
}

// artifacts times the durable artifacts' write paths and what a sink
// costs a campaign.
func (l *ledger) artifacts() error {
	appends := l.iters / 10
	store, err := triage.OpenStore(filepath.Join(l.scratch, "append.jsonl"))
	if err != nil {
		return err
	}
	rec := triage.NewRecorder(store)
	start := time.Now()
	for i := 0; i < appends; i++ {
		rec.Record(sampleResult(i).RunRecord())
	}
	if err := store.Close(); err != nil {
		return err
	}
	l.set("triage.append_us", float64(time.Since(start))/1e3/float64(appends), "us")

	tracer, err := obs.OpenTrace(filepath.Join(l.scratch, "emit.jsonl"), false)
	if err != nil {
		return err
	}
	sc := obs.Scope{System: "yarn", Campaign: "test"}
	start = time.Now()
	tracer.Emit(obs.Event{Kind: obs.CampaignStart, Scope: sc, Run: -1, Total: l.iters})
	for i := 0; i < l.iters; i++ {
		tracer.Emit(obs.Event{Kind: obs.PhaseEnd, Scope: sc, Run: i, Phase: "drive", Wall: time.Millisecond, Sim: sim.Second})
		tracer.Emit(obs.Event{Kind: obs.RunDone, Scope: sc, Run: i, Done: i + 1, Total: l.iters, Crash: "Scheduler.completeContainer#3/pre-read@Scheduler.handle", Outcome: "ok", Sim: sim.Second})
	}
	tracer.Emit(obs.Event{Kind: obs.CampaignEnd, Scope: sc, Run: -1, Done: l.iters, Total: l.iters})
	if err := tracer.Close(); err != nil {
		return err
	}
	l.set("obs.emit_ns", float64(time.Since(start))/float64(2*l.iters+2), "ns")

	// The same pipeline ops with a file tracer on the sink and with no
	// sink, alternating, summed over the systems.
	var plain, traced []float64
	for p := 0; p < l.passes; p++ {
		var plainNS, tracedNS float64
		for _, r := range systems() {
			opts := pipelineOptions(l.seed, l.scale)
			start = time.Now()
			core.Run(r, opts)
			plainNS += float64(time.Since(start))

			tracer, err := obs.OpenTrace(filepath.Join(l.scratch, "sink.jsonl"), false)
			if err != nil {
				return err
			}
			opts.Sink = tracer
			start = time.Now()
			core.Run(r, opts)
			if err := tracer.Close(); err != nil {
				return err
			}
			tracedNS += float64(time.Since(start))
		}
		plain, traced = append(plain, plainNS), append(traced, tracedNS)
	}
	l.set("obs.sink_overhead", median(traced)/median(plain)-1, "ratio")
	return nil
}

// host reads the runtime's and the kernel's view of the process; these
// are context for alloc_mb_per_op, not end-to-end metrics: peak RSS
// reads differently for identical work.
func (l *ledger) host() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.set("host.gc_cpu_share", ms.GCCPUFraction, "ratio")
	l.set("host.num_gc", float64(ms.NumGC), "count")
	l.set("host.peak_rss_mb", peakRSSMB(), "MB")
}

// peakRSSMB is VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
