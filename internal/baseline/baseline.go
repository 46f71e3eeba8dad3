// Package baseline implements the two fault-injection baselines the
// paper compares CrashTuner against (§4.2): random crash injection and
// OpenStack-style IO fault injection.
//
// Random injection (§4.2.1) runs the system many times, each time
// injecting one crash (or shutdown) of a random node at a random time in
// [0, T], where T is the fault-free run time.
//
// IO fault injection (§4.2.2) injects around dynamic IO points. The
// paper instruments call-sites of read/write/flush/close methods on
// Closeable classes; in this reproduction the observable IO of a run is
// its log stream (every record is a file write), so a dynamic IO point
// is one (log pattern, node) pair observed during profiling, and the
// injection crashes the writing node right after (or just before) one of
// its emissions. The static side of Table 8 comes from the IR census.
//
// No model draws from the engine RNG before a fault, so a random run up
// to its injection time is one fault-free execution whatever its seed.
// Random runs it once, cloning it at sixteen times over [0, T]; each job
// draws from its own seed as a whole run does, resumes the last clone
// before its injection time and injects there, under the fence of
// prefix.fenced. A tripped fence or a system that is not
// cluster.Cloneable takes the whole run. IO injection stays on whole
// runs: its few dozen jobs do not pay for a second ladder.
package baseline

import (
	"sort"

	"repro/internal/campaign"
	"repro/internal/dslog"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// Result aggregates a baseline campaign.
type Result struct {
	System string
	Runs   int
	// ByOutcome counts runs per oracle outcome.
	ByOutcome map[trigger.Outcome]int
	// BugHits counts, per witnessed seeded bug, how many runs triggered
	// it (the "2(4)"-style cells of Tables 7 and 9).
	BugHits map[string]int
	// BugRuns is the number of runs with a bug outcome.
	BugRuns int
	// VirtualTime sums the virtual duration of all runs (the "Times(h)"
	// column, on the virtual clock).
	VirtualTime sim.Time
}

func newResult(system string) *Result {
	return &Result{
		System:    system,
		ByOutcome: make(map[trigger.Outcome]int),
		BugHits:   make(map[string]int),
	}
}

// DistinctBugs returns the witnessed bug IDs, sorted.
func (r *Result) DistinctBugs() []string {
	out := make([]string, 0, len(r.BugHits))
	for b := range r.BugHits {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

func (r *Result) record(o fleet.Result) {
	r.Runs++
	outcome, _ := trigger.ParseOutcome(o.Outcome)
	r.ByOutcome[outcome]++
	r.VirtualTime += o.Duration
	if o.Failing {
		r.BugRuns++
		for _, w := range o.Witnesses {
			r.BugHits[w]++
		}
	}
}

// Options configures a baseline campaign.
type Options struct {
	// Config carries the shared campaign-execution knobs (worker pool,
	// checkpointing, observability sink); see campaign.Config.
	campaign.Config

	Seed          int64
	Scale         int
	Runs          int // number of injection runs
	TimeoutFactor int // oracle threshold (default 4)
	// DeadlineFactor bounds each run (default 20x baseline).
	DeadlineFactor int
	// IncludeMasters also targets the coordinator node (host "node0").
	// The paper's clusters restart crashed masters; the baselines do not,
	// and by default pick victims among worker nodes only — otherwise
	// every master-victim run would trivially count as a hang.
	IncludeMasters bool
}

// runConfig builds the lean per-injection-run cluster config: the
// baseline oracles read engine state only, never the rendered logs.
func (o Options) runConfig(seed int64) cluster.Config {
	pb := probe.New()
	pb.Lean = true
	return cluster.Config{Seed: seed, Scale: o.Scale, Probe: pb, Logs: dslog.Discard()}
}

// campaignOptions builds the engine options for one baseline campaign,
// labelled with its kind ("random" or "io") and annotated with the
// per-run oracle outcome and virtual duration. The job type is the
// fleet wire result, so baseline checkpoints use the same encoding as
// every other campaign's.
func (o Options) campaignOptions(system, kind string) campaign.Options[fleet.Result] {
	bugs := 0 // guarded by the campaign completion lock (Annotate contract)
	return campaign.Options[fleet.Result]{
		Workers:    o.Workers,
		Checkpoint: o.Config.Checkpoint(),
		Sink:       o.Sink,
		Scope:      obs.Scope{System: system, Campaign: kind},
		Annotate: func(ev *obs.Event, i int, r fleet.Result) {
			if r.Failing {
				bugs++
			}
			ev.Bugs = bugs
			ev.Outcome = r.Outcome
			ev.Sim = r.Duration
		},
	}
}

// recordResults delivers a baseline campaign's results to the
// configured triage recorder, in run order so repeat campaigns append
// to a store identically. Each wire result flattens itself; the job it
// echoes carries the per-run point and seed.
func (o Options) recordResults(results []fleet.Result) {
	rec := o.Config.Recorder
	if rec == nil {
		return
	}
	for _, res := range results {
		rec.Record(res.RunRecord())
	}
}

// masterHost is the coordinator host in every simulated system.
const masterHost = "node0"

func victims(nodes []sim.NodeID, includeMasters bool) []sim.NodeID {
	if includeMasters {
		return nodes
	}
	var out []sim.NodeID
	for _, n := range nodes {
		if n.Host() != masterHost {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nodes
	}
	return out
}

func (o *Options) defaults() {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 100
	}
	if o.TimeoutFactor <= 0 {
		o.TimeoutFactor = 4
	}
	if o.DeadlineFactor <= 0 {
		o.DeadlineFactor = 20
	}
}

func deadlineOf(b trigger.Baseline, factor int) sim.Time {
	d := b.Duration * sim.Time(factor)
	if d < 30*sim.Second {
		d = 30 * sim.Second
	}
	return d
}

// resultOf assembles the wire result of one baseline run.
func resultOf(j fleet.Job, outcome trigger.Outcome, duration sim.Time, witnesses, newEx []string, fault *fleet.Fault, target string) fleet.Result {
	return fleet.Result{
		Job:        j,
		Outcome:    outcome.String(),
		Failing:    outcome.IsBug(),
		Target:     target,
		Fault:      fault,
		Duration:   duration,
		Exceptions: newEx,
		Witnesses:  witnesses,
	}
}

// Random jobs served by a fork, and forks abandoned for the whole run;
// the counters are trigger's.
var (
	cloneForks     = obs.Default.Counter("crashtuner_clone_forks_total")
	cloneFallbacks = obs.Default.Counter("crashtuner_clone_fallbacks_total")
)

// rungs is how many clones the random campaign's prefix ladder keeps.
const rungs = 16

// prefix is the fault-free run every random job shares up to its
// injection time, built once per campaign.
type prefix struct {
	victims []sim.NodeID
	seq     uint64 // a whole run's fault seq
	// ladder[k] is the run with every event up to k·T/rungs dispatched
	// (ladder[0]: none); empty when the system is not Cloneable.
	ladder []cluster.Run
	// fences[h] is the fingerprint after h dispatched events, up to T.
	fences []sim.Fingerprint
}

// newPrefix runs the fault-free prefix once: NewRun, the seq reservation
// where a whole run calls e.After, Start, then the ladder and fences.
func newPrefix(r cluster.Runner, b trigger.Baseline, opts Options) *prefix {
	cfg := opts.runConfig(opts.Seed)
	run := r.NewRun(cfg)
	e := run.Engine()
	p := &prefix{victims: victims(e.AliveNodes(), opts.IncludeMasters), seq: e.ReserveSeq()}
	run.Start()
	p.fences = append(p.fences, e.Fingerprint())
	d := b.Duration
	for k := 0; k < rungs; k++ {
		// The first rung is the started run: Run(0) would mean no deadline.
		if at := d * sim.Time(k) / rungs; at > 0 && !p.step(run, at) {
			break // the run ended before this rung
		}
		tmpl, ok := cluster.Clone(run, cfg)
		if !ok {
			break
		}
		p.ladder = append(p.ladder, tmpl)
	}
	if d > 0 {
		p.step(run, d)
	}
	return p
}

// step dispatches the reference one event at a time up to until,
// fencing after each; it reports false once the run has ended.
func (p *prefix) step(run cluster.Run, until sim.Time) bool {
	e := run.Engine()
	defer func() { e.MaxSteps = 0 }()
	for {
		e.MaxSteps = e.Steps() + 1
		if res := cluster.DriveResume(run, until); !res.Exhausted {
			return res.Deadline
		}
		p.fences = append(p.fences, e.Fingerprint())
	}
}

// fenced reports whether a fork whose fault at `at` is firing matches
// the reference: Seq, Queue, NodeSum and Part as after the same number
// of dispatched events, and no reference event due before at.
func (p *prefix) fenced(e *sim.Engine, at sim.Time) bool {
	h := int(e.Steps()) - 1 // the fault's own dispatch is counted
	if h >= len(p.fences) {
		return false
	}
	got, want := e.Fingerprint(), p.fences[h]
	if got.Seq != want.Seq || got.Queue != want.Queue || got.NodeSum != want.NodeSum || got.Part != want.Part {
		return false
	}
	return h+1 == len(p.fences) || p.fences[h+1].Now >= at
}

// draw is what a random job draws from its own seed, in a whole run's
// order; rng continues the seed's stream after them.
type draw struct {
	seed     int64
	at       sim.Time
	victim   sim.NodeID
	graceful bool
	rng      sim.Stream
}

func (d draw) inject(e *sim.Engine) {
	if d.graceful {
		e.Shutdown(d.victim)
	} else {
		e.Crash(d.victim)
	}
}

// randomExecutor implements fleet.Executor for the random campaign. A
// random job is fully named by its seed: the injection time, the victim
// and the crash/shutdown coin are all drawn from the run's own seed, so
// re-executing the job anywhere reproduces it bit-identically.
type randomExecutor struct {
	runner   cluster.Runner
	baseline trigger.Baseline
	opts     Options
	deadline sim.Time
	prefix   *prefix
}

var _ fleet.Executor = (*randomExecutor)(nil)

func newRandomExecutor(r cluster.Runner, b trigger.Baseline, opts Options) *randomExecutor {
	return &randomExecutor{runner: r, baseline: b, opts: opts, deadline: deadlineOf(b, opts.DeadlineFactor), prefix: newPrefix(r, b, opts)}
}

func (x *randomExecutor) draw(seed int64) draw {
	rng := sim.NewStream(seed)
	at := sim.Time(rng.Int63n(int64(x.baseline.Duration) + 1))
	victim := x.prefix.victims[rng.Intn(len(x.prefix.victims))]
	graceful := rng.Intn(2) == 0
	return draw{seed: seed, at: at, victim: victim, graceful: graceful, rng: rng}
}

// fork runs the job from the highest rung before its injection time.
// ok=false means no rung serves it or the fence tripped.
func (x *randomExecutor) fork(d draw) (run cluster.Run, rr sim.RunResult, ok bool) {
	p := x.prefix
	k := len(p.ladder) - 1
	if k < 0 {
		return nil, rr, false
	}
	for k > 0 && x.baseline.Duration*sim.Time(k)/rungs >= d.at {
		k--
	}
	if run, ok = cluster.Clone(p.ladder[k], x.opts.runConfig(d.seed)); ok {
		e := run.Engine()
		e.SetStream(d.rng)
		e.AtSeq(d.at, p.seq, func() {
			if ok = p.fenced(e, d.at); !ok {
				e.Stop()
				return
			}
			d.inject(e)
		})
		rr = cluster.DriveResume(run, x.deadline)
	}
	if !ok {
		cloneFallbacks.Inc()
		return nil, rr, false
	}
	cloneForks.Inc()
	return run, rr, true
}

// whole runs the job from t = 0.
func (x *randomExecutor) whole(d draw) (cluster.Run, sim.RunResult) {
	run := x.runner.NewRun(x.opts.runConfig(d.seed))
	e := run.Engine()
	e.SetStream(d.rng)
	e.After(d.at, func() { d.inject(e) })
	return run, cluster.Drive(run, x.deadline)
}

func (x *randomExecutor) Execute(j fleet.Job) fleet.Result {
	d := x.draw(j.Seed)
	run, rr, ok := x.fork(d)
	if !ok {
		// Redraw: the abandoned fork owns d's stream.
		d = x.draw(j.Seed)
		run, rr = x.whole(d)
	}
	return x.result(j, d, run, rr)
}

// result judges one finished random run.
func (x *randomExecutor) result(j fleet.Job, d draw, run cluster.Run, rr sim.RunResult) fleet.Result {
	newEx := trigger.NewUnhandled(x.baseline, run.Engine())
	outcome := trigger.Evaluate(x.baseline, run, rr, newEx, x.opts.TimeoutFactor)
	kind := sim.FaultCrash
	if d.graceful {
		kind = sim.FaultShutdown
	}
	fault := &fleet.Fault{Kind: kind.String(), Node: string(d.victim), At: d.at}
	return resultOf(j, outcome, rr.End, run.Witnesses(), newEx, fault, string(d.victim))
}

// Random runs the §4.2.1 random crash-injection campaign: the job list
// (one wire job per run, seeded by index) drives a fleet executor over
// the Options' worker pool, and the per-run results fold into the
// Result in index order, so the Result is identical for any worker
// count.
func Random(r cluster.Runner, b trigger.Baseline, opts Options) *Result {
	opts.defaults()
	res := newResult(r.Name())
	x := newRandomExecutor(r, b, opts)
	jobs := make([]fleet.Job, opts.Runs)
	for i := range jobs {
		jobs[i] = fleet.Job{System: r.Name(), Campaign: "random", Run: i, Seed: opts.Seed + int64(i), Scale: opts.Scale}
	}
	results := campaign.Run(len(jobs), opts.campaignOptions(r.Name(), "random"), func(i int) fleet.Result { return x.Execute(jobs[i]) })
	for _, o := range results {
		res.record(o)
	}
	opts.recordResults(results)
	return res
}

// IOPoint is one dynamic IO point: a log pattern emitted by a node.
type IOPoint struct {
	Pattern ir.PointID
	Node    sim.NodeID
	// At is a representative emission time from the profiling run.
	At sim.Time
}

// CollectIOPoints profiles one run and returns the dynamic IO points:
// distinct (pattern, node) pairs with their first emission times.
func CollectIOPoints(r cluster.Runner, matcher *logparse.Matcher, seed int64, scale int, deadline sim.Time) []IOPoint {
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, deadline)
	seen := map[string]bool{}
	var out []IOPoint
	session := matcher.NewSession()
	for _, rec := range logs.Records() {
		m := session.Match(rec)
		if m == nil {
			continue
		}
		key := string(m.Pattern.Point) + "@" + string(rec.Node)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, IOPoint{Pattern: m.Pattern.Point, Node: rec.Node, At: rec.At})
	}
	return out
}

// ioJob is one flattened (IO point, delta) injection.
type ioJob struct {
	point IOPoint
	seed  int64
	at    sim.Time
}

// ioExecutor implements fleet.Executor for the IO-injection campaign.
// The flattened job list is rebuilt deterministically from the campaign
// seed and scale (CollectIOPoints profiles one run), so a wire job
// needs only its run ordinal to name its injection.
type ioExecutor struct {
	runner   cluster.Runner
	baseline trigger.Baseline
	opts     Options
	deadline sim.Time
	jobs     []ioJob
}

var _ fleet.Executor = (*ioExecutor)(nil)

// newIOExecutor collects the dynamic IO points and flattens (point,
// delta) pairs into the indexed job list, point-major with the
// before-emission run ahead of the after-emission one.
func newIOExecutor(r cluster.Runner, matcher *logparse.Matcher, b trigger.Baseline, opts Options) *ioExecutor {
	x := &ioExecutor{runner: r, baseline: b, opts: opts, deadline: deadlineOf(b, opts.DeadlineFactor)}
	points := CollectIOPoints(r, matcher, opts.Seed, opts.Scale, x.deadline)
	if !opts.IncludeMasters {
		kept := points[:0]
		for _, pt := range points {
			if pt.Node.Host() != masterHost {
				kept = append(kept, pt)
			}
		}
		points = kept
	}
	deltas := []sim.Time{-sim.Millisecond, sim.Millisecond}
	x.jobs = make([]ioJob, 0, 2*len(points))
	for i, pt := range points {
		for _, delta := range deltas {
			at := pt.At + delta
			if at < 0 {
				at = 0
			}
			x.jobs = append(x.jobs, ioJob{point: pt, seed: opts.Seed + int64(i), at: at})
		}
	}
	return x
}

func (x *ioExecutor) Execute(j fleet.Job) fleet.Result {
	if j.Run < 0 || j.Run >= len(x.jobs) {
		res := resultOf(j, trigger.HarnessError, 0, nil, nil, nil, "")
		res.Reason = "io job ordinal out of range"
		return res
	}
	jb := x.jobs[j.Run]
	run := x.runner.NewRun(x.opts.runConfig(jb.seed))
	e := run.Engine()
	victim := jb.point.Node
	e.After(jb.at, func() {
		e.Crash(victim)
	})
	rr := cluster.Drive(run, x.deadline)
	newEx := trigger.NewUnhandled(x.baseline, e)
	outcome := trigger.Evaluate(x.baseline, run, rr, newEx, x.opts.TimeoutFactor)
	fault := &fleet.Fault{Kind: sim.FaultCrash.String(), Node: string(victim), At: jb.at}
	return resultOf(j, outcome, rr.End, run.Witnesses(), newEx, fault, string(victim))
}

// IOInjection runs the §4.2.2 campaign: for every dynamic IO point, two
// runs — one crashing the writing node just before the emission time and
// one just after — driven through the campaign's fleet executor.
func IOInjection(r cluster.Runner, matcher *logparse.Matcher, b trigger.Baseline, opts Options) *Result {
	opts.defaults()
	res := newResult(r.Name())
	x := newIOExecutor(r, matcher, b, opts)
	jobs := make([]fleet.Job, len(x.jobs))
	for i, jb := range x.jobs {
		jobs[i] = fleet.Job{System: r.Name(), Campaign: "io", Run: i, Seed: jb.seed, Scale: opts.Scale, Point: string(jb.point.Pattern)}
	}
	results := campaign.Run(len(jobs), opts.campaignOptions(r.Name(), "io"), func(i int) fleet.Result { return x.Execute(jobs[i]) })
	for _, o := range results {
		res.record(o)
	}
	opts.recordResults(results)
	return res
}
