package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failmode"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/systems/all"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// fleet-triage-analyze: one fleet round per op, the service and
// durable-artifact path. A coordinator serves 28 pre-planned plans
// (seven systems x test / recovery / partition / partition-recovery,
// scale 4) over loopback HTTP to two workers sharing a warm
// ArtifactCache, with per-shard checkpoints, a JSONL trace and a triage
// store in a scratch directory; then the store is loaded and clustered
// and the failure-mode analytics load, fit and score the trace. Planning
// and analysis are set-up, so fleet, the campaign checkpoints, obs,
// triage and failmode do the timed work.
//
// Each campaign kind has ONE parameter set per round: fleet.Spec.Key()
// omits the recovery and partition parameters, so two plans differing
// only there would share a worker's cached executor and results would
// depend on the schedule.
var fleetTriageAnalyzeDef = workloadDef{
	name:         "fleet-triage-analyze",
	scale:        fleetScale,
	goldenBlocks: fleetSeeds,
	setupReps:    3,
	build:        newFleetTriageAnalyze,
}

const (
	fleetScale   = 4
	fleetSeeds   = 4 // rounds cycle through this many seeds' plans
	fleetWorkers = 2
)

// fleetKinds is the one parameter set per campaign kind.
func fleetKinds() []variant {
	return []variant{
		{name: "test"},
		{name: "recovery", recovery: &trigger.RecoveryOptions{}},
		{name: "partition", partition: &trigger.PartitionOptions{}},
		{name: "partition-recovery", recovery: &trigger.RecoveryOptions{}, partition: &trigger.PartitionOptions{HoldOpen: true}},
	}
}

// plannedRound is one seed's job space plus what the same plans produce
// in-process: the reference a fleet round has to reproduce.
type plannedRound struct {
	seed  int64
	plans []fleet.Plan
	want  [][]string // verdict lines, per plan
	store []byte     // triage store bytes
}

// planRound plans the 28 campaigns of one seed with core.PlanFleet and
// runs each in-process (ArtifactCache.Run, one worker, a triage
// recorder) for the reference; that also warms the cache's analyses
// and snapshot plans the fleet workers will share.
func planRound(cache *core.ArtifactCache, seed int64, scratch string, scale int) (*plannedRound, error) {
	pr := &plannedRound{seed: seed}
	storePath := filepath.Join(scratch, fmt.Sprintf("reference-%d.jsonl", seed))
	store, err := triage.OpenStore(storePath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(storePath)
	for _, r := range systems() {
		for _, k := range fleetKinds() {
			opts := k.options(seed, scale)
			plan, err := core.PlanFleet(r, cache, opts)
			if err != nil {
				store.Close()
				return nil, err
			}
			pr.plans = append(pr.plans, plan)
			opts.Recorder = triage.NewRecorder(store)
			pr.want = append(pr.want, verdictsOf(r.Name(), cache.Run(r, opts).Reports).lines)
		}
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	pr.store, err = os.ReadFile(storePath)
	return pr, err
}

type fleetTriageAnalyze struct {
	seed    int64
	cache   *core.ArtifactCache
	scratch string
	rounds  [fleetSeeds]*plannedRound
}

func newFleetTriageAnalyze(seed int64) workload {
	return &fleetTriageAnalyze{seed: seed, cache: core.NewArtifactCache(), scratch: scratchDir()}
}

// block is one round. The first fleetSeeds blocks plan their seed
// untimed; later blocks cycle through the planned rounds.
func (w *fleetTriageAnalyze) block(b int) []op {
	k := b % fleetSeeds
	var planErr error
	if w.rounds[k] == nil {
		w.rounds[k], planErr = planRound(w.cache, opSeed(w.seed, k), w.scratch, fleetScale)
	}
	pr := w.rounds[k]
	return []op{{
		name: fmt.Sprintf("round %d seed=%d", b, opSeed(w.seed, k)),
		run: func(tr *spans) ([]verdicts, error) {
			if planErr != nil {
				return nil, fmt.Errorf("planning: %w", planErr)
			}
			var fc *fleetCounters
			if tr != nil {
				fc = &fleetCounters{}
			}
			var out []verdicts
			var err error
			tr.time("op", func() { out, _, err = fleetRound(tr, fc, w.cache, pr, w.scratch) })
			return out, err
		},
	}}
}

// fleetCounters is what the decorators of an instrumented round count on
// the workers' goroutines.
type fleetCounters struct {
	factories, factoryNS atomic.Int64
	executes, executeNS  atomic.Int64
	requests, wireBytes  atomic.Int64
}

// timedExecutor times Execute and forwards SetSink, which the worker
// uses to capture each job's phase spans.
type timedExecutor struct {
	inner fleet.Executor
	fc    *fleetCounters
}

func (x *timedExecutor) Execute(j fleet.Job) fleet.Result {
	start := time.Now()
	res := x.inner.Execute(j)
	x.fc.executes.Add(1)
	x.fc.executeNS.Add(int64(time.Since(start)))
	return res
}

func (x *timedExecutor) SetSink(s obs.Sink) {
	if ss, ok := x.inner.(interface{ SetSink(obs.Sink) }); ok {
		ss.SetSink(s)
	}
}

func (fc *fleetCounters) factory(inner fleet.ExecutorFactory) fleet.ExecutorFactory {
	if fc == nil {
		return inner
	}
	return func(spec fleet.Spec, scale int) (fleet.Executor, error) {
		start := time.Now()
		x, err := inner(spec, scale)
		fc.factories.Add(1)
		fc.factoryNS.Add(int64(time.Since(start)))
		if err != nil {
			return nil, err
		}
		return &timedExecutor{inner: x, fc: fc}, nil
	}
}

// countingTransport counts HTTP requests and the body bytes both ways.
type countingTransport struct {
	inner http.RoundTripper
	fc    *fleetCounters
}

type countingBody struct {
	io.ReadCloser
	fc *fleetCounters
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.fc.wireBytes.Add(int64(n))
	return n, err
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.fc.requests.Add(1)
	if req.ContentLength > 0 {
		t.fc.wireBytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.fc}
	}
	return resp, err
}

// roundStats is what an instrumented round reports beyond its verdicts.
type roundStats struct {
	stats    fleet.Stats
	serveNS  float64 // Start -> Wait returned
	drainNS  float64 // Wait returned -> workers gone, files closed
	clusters int
	modes    int
	suspects int
	// Instrumented rounds only: the spans of the trace the round wrote,
	// and how long obs.ReadTrace took over it.
	spans       int
	readTraceNS float64
}

// fleetRound runs one round and checks it against the in-process
// reference. fc is nil unless the round is instrumented.
func fleetRound(tr *spans, fc *fleetCounters, cache *core.ArtifactCache, pr *plannedRound, scratch string) ([]verdicts, roundStats, error) {
	var rs roundStats
	dir, err := os.MkdirTemp(scratch, "round-")
	if err != nil {
		return nil, rs, err
	}
	defer os.RemoveAll(dir)
	tracePath, storePath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "triage.jsonl")

	var tracer *obs.Tracer
	var store *triage.Store
	var c *fleet.Coordinator
	tr.time("fleet.open", func() {
		if tracer, err = obs.OpenTrace(tracePath, false); err != nil {
			return
		}
		if store, err = triage.OpenStore(storePath); err != nil {
			return
		}
		c, err = fleet.New(fleet.Config{
			Addr:     "127.0.0.1:0",
			Plans:    pr.plans,
			LeaseTTL: time.Minute,
			Dir:      filepath.Join(dir, "shards"),
			Sink:     tracer,
			Recorder: triage.NewRecorder(store),
		})
		if err == nil {
			err = c.Start()
		}
	})
	// closeAll ends the round's service and files; the success path
	// calls it inside the drain span and checks its error.
	closeAll := func() error {
		var first error
		if c != nil {
			first = c.Close()
		}
		if tracer != nil {
			if err := tracer.Close(); first == nil {
				first = err
			}
		}
		if store != nil {
			if err := store.Close(); first == nil {
				first = err
			}
		}
		c, tracer, store = nil, nil, nil
		return first
	}
	defer closeAll()
	if err != nil {
		return nil, rs, err
	}

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	if fc != nil {
		client.Transport = countingTransport{transport, fc}
	}
	workerErrs := make([]error, fleetWorkers)
	var results []fleet.PlanResult
	var wg sync.WaitGroup
	start := time.Now()
	tr.time("fleet.serve", func() {
		for i := 0; i < fleetWorkers; i++ {
			w := &fleet.Worker{
				Base:    "http://" + c.Addr(),
				Name:    fmt.Sprintf("w%d", i),
				Factory: fc.factory(core.FleetExecutors(cache, all.ByName)),
				Client:  client,
				Poll:    time.Millisecond,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				workerErrs[i] = w.Run()
			}()
		}
		// Wait has no way to give up, so a round whose workers all died
		// would hang the benchmark: watch for that beside it.
		waited := make(chan []fleet.PlanResult, 1)
		go func(c *fleet.Coordinator) { waited <- c.Wait() }(c)
		exited := make(chan struct{})
		go func() { wg.Wait(); close(exited) }()
		select {
		case results = <-waited:
		case <-exited:
			if !c.Stats().Drained {
				err = fmt.Errorf("workers exited before the fleet drained: %v", workerErrs)
				return
			}
			results = <-waited
		}
	})
	if err != nil {
		return nil, rs, err
	}
	rs.serveNS = float64(time.Since(start))
	start = time.Now()
	tr.time("fleet.drain", func() {
		c.AwaitWorkers(5 * time.Second)
		wg.Wait()
		rs.stats = c.Stats()
		err = closeAll()
	})
	rs.drainNS = float64(time.Since(start))
	for _, werr := range workerErrs {
		if err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, rs, err
	}

	var ix *triage.Index
	var clusters []*triage.Cluster
	tr.time("triage.load", func() { ix, err = triage.Load(storePath) })
	if err != nil {
		return nil, rs, err
	}
	tr.time("triage.cluster", func() { clusters = ix.Clusters() })
	var runs []failmode.RunView
	tr.time("failmode.load", func() { runs, err = failmode.LoadRuns(tracePath, storePath) })
	if err != nil {
		return nil, rs, err
	}
	var model *failmode.Model
	var fit, scored *failmode.Report
	tr.time("failmode.fit", func() { model, fit = failmode.Fit(runs, failmode.DefaultConfig()) })
	tr.time("failmode.score", func() { scored = failmode.Score(model, runs) })
	rs.clusters, rs.modes, rs.suspects = len(clusters), fit.TotalModes(), scored.TotalAnomalies()

	// The round has to reproduce the in-process campaigns exactly: the
	// same report tables, the same triage store bytes.
	if len(results) != len(pr.plans) {
		return nil, rs, fmt.Errorf("fleet returned %d plans, planned %d", len(results), len(pr.plans))
	}
	var out []verdicts
	for p, res := range results {
		reports := make([]trigger.Report, len(res.Results))
		for i, r := range res.Results {
			reports[i] = trigger.ResultReport(r)
		}
		v := verdictsOf(res.Spec.System, reports)
		if !slices.Equal(v.lines, pr.want[p]) {
			return nil, rs, fmt.Errorf("%s/%s: fleet report table differs from the in-process campaign's", res.Spec.System, res.Spec.Campaign)
		}
		out = append(out, v)
	}
	got, err := os.ReadFile(storePath)
	if err != nil {
		return nil, rs, err
	}
	if !bytes.Equal(got, pr.store) {
		return nil, rs, fmt.Errorf("fleet triage store (%d bytes) differs from the in-process campaigns' (%d bytes)", len(got), len(pr.store))
	}
	if fc != nil {
		if f, err := os.Open(tracePath); err == nil {
			start := time.Now()
			st, _ := obs.ReadTrace(f, func(int, obs.Span) error { return nil })
			rs.spans, rs.readTraceNS = st.Spans, float64(time.Since(start))
			f.Close()
		}
	}
	out = append(out, verdicts{group: "analytics", lines: []string{
		fmt.Sprintf("triage clusters=%d|failmode modes=%d suspects=%d", rs.clusters, rs.modes, rs.suspects),
	}})
	return out, rs, nil
}
