// The fleet coordinator: a long-running HTTP service that shards the
// planned job space, hands shard leases to worker processes, re-queues
// expired leases, ingests each lease's batch of results (with their
// trace spans) back into the obs sink and the triage recorder, and
// checkpoints every completed job to per-shard JSONL files so a killed
// coordinator — or a killed worker — resumes instead of restarting.
//
// Determinism: the job space is fixed by the plans, results assemble
// into a slice indexed by global job position, duplicate results (late
// leases, stolen shards) are dropped first-write-wins, and the triage
// recorder is fed after completion in plan order/run order — exactly
// the order the single-process campaign records in. Scheduling only
// decides WHEN a job runs, never what it computes, so the final tables
// and the triage store are byte-identical to a local campaign at any
// worker count.
package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/triage"
)

// Fleet instruments on the default registry, scraped from the
// coordinator's own /metrics endpoint.
var (
	fleetLeases   = obs.Default.Counter("crashtuner_fleet_leases_total")
	fleetExpiries = obs.Default.Counter("crashtuner_fleet_lease_expiries_total")
	fleetSteals   = obs.Default.Counter("crashtuner_fleet_steals_total")
	fleetJobs     = obs.Default.Counter("crashtuner_fleet_jobs_total")
	fleetDupes    = obs.Default.Counter("crashtuner_fleet_duplicates_total")
)

// Config configures a coordinator.
type Config struct {
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// Plans is the job space, one plan per system campaign.
	Plans []Plan
	// ShardSize is the lease granularity in jobs (default 8).
	ShardSize int
	// LeaseTTL is how long a worker owns a shard without posting a
	// batch of results before the shard is re-queued (default 30s).
	// Each accepted batch renews the lease. A worker posts when its
	// shard ends, and, while a long shard runs, every third of the TTL.
	LeaseTTL time.Duration
	// Dir, when non-empty, holds one JSONL checkpoint file per shard
	// (campaign.CheckpointWriter lines, indexed by global job position).
	Dir string
	// Resume reloads the Dir checkpoints before serving and skips the
	// jobs already recorded there.
	Resume bool
	// Sink observes the fleet campaign: per-plan CampaignStart/End,
	// RunDone per ingested result, and the workers' phase spans re-emitted
	// in run context.
	Sink obs.Sink
	// Recorder, when non-nil, receives every run's record after the
	// fleet drains, in plan order / run order — the single-process
	// recording order.
	Recorder campaign.RunRecorder
	// SeedIndex, when non-nil, seeds the scheduler's cluster feedback
	// from an existing triage store, so "new cluster" means new against
	// everything already triaged.
	SeedIndex *triage.Index
	// Suppress lists suppressed signature keys; shards whose remaining
	// points only reproduce suppressed clusters are demoted.
	Suppress map[string]bool
}

func (c *Config) defaults() {
	if c.ShardSize <= 0 {
		c.ShardSize = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
}

// Stats is a point-in-time snapshot of coordinator counters, for tests
// and the /v1/status endpoint.
type Stats struct {
	Total      int   `json:"total"`      // jobs planned so far (grows with retry waves)
	Done       int   `json:"done"`       // jobs with a result
	Restored   int   `json:"restored"`   // jobs restored from checkpoints
	Leases     int64 `json:"leases"`     // leases handed out
	LeasedJobs int64 `json:"leasedJobs"` // jobs handed out across all leases
	Expiries   int64 `json:"expiries"`   // leases dropped by the TTL sweep
	Steals     int64 `json:"steals"`     // leases that co-leased an already-leased shard
	Duplicates int64 `json:"duplicates"` // results dropped first-write-wins
	Rejected   int64 `json:"rejected"`   // results refused because the posted job mismatched the plan
	Drained    bool  `json:"drained"`    // every plan finished
}

// shard is one lease unit: a contiguous slice of the global job space.
type shard struct {
	id   int
	plan int
	// jobs maps global job index → job; remaining is the not-yet-done
	// subset. A lease hands out exactly the remaining set.
	jobs      map[int]Job
	remaining map[int]bool
	// slots lists the shard's global indices in planning order; slot is
	// the inverse (global index → position). The slot — not the global
	// index — keys the shard's checkpoint lines: retry jobs get their
	// global indices in plan-completion order on a live run but in plan
	// order on resume, so the indices differ across incarnations while
	// the slot within a (plan, wave, ordinal) shard does not.
	slots  []int
	slot   map[int]int
	leases []*lease
	ckpt   *campaign.CheckpointWriter[Result]
}

type lease struct {
	id      int64
	worker  string
	expires time.Time
}

// workerState tracks one worker's liveness, so the drain grace
// (AwaitWorkers) can tell live workers apart from dead ones.
type workerState struct {
	lastSeen time.Time
	// told is set once the worker has polled after the drain and been
	// sent the 410 — it knows to exit.
	told bool
}

// planState tracks one plan's waves.
type planState struct {
	plan     Plan
	wave1    []int // global indices, in run order
	retry    []int // global indices of the retry wave, in retry-run order
	origOf   map[int]int
	planned  bool // retry wave has been planned
	finished bool
}

// Coordinator is the fleet service. Create with New, then Start.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	jobs    []Job
	planOf  []int
	results []*Result
	shards  []*shard
	plans   []*planState
	sched   *scheduler
	stats   Stats
	leaseID int64
	workers map[string]*workerState

	// told is closed, and replaced, each time a worker is told 410;
	// AwaitWorkers waits on it.
	told chan struct{}

	done     chan struct{}
	recorded bool

	ln  net.Listener
	srv *http.Server
}

// New builds a coordinator over the given plans, creating the wave-1
// shards and restoring any checkpoints before the service starts.
func New(cfg Config) (*Coordinator, error) {
	cfg.defaults()
	c := &Coordinator{cfg: cfg, done: make(chan struct{}), told: make(chan struct{}), workers: map[string]*workerState{}}
	c.sched = newScheduler(cfg.SeedIndex, cfg.Suppress)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
		}
	}
	for p, plan := range cfg.Plans {
		ps := &planState{plan: plan, origOf: map[int]int{}}
		for _, j := range plan.Jobs {
			g := len(c.jobs)
			c.jobs = append(c.jobs, j)
			c.planOf = append(c.planOf, p)
			c.results = append(c.results, nil)
			ps.wave1 = append(ps.wave1, g)
		}
		c.plans = append(c.plans, ps)
	}
	c.stats.Total = len(c.jobs)
	// Shard each plan's wave and restore checkpoints; restored results
	// count toward the CampaignStart Done field, like a resumed local
	// campaign.
	for p, ps := range c.plans {
		c.addShards(p, 1, ps.wave1)
	}
	for p, ps := range c.plans {
		c.emitCampaignStart(p, ps.wave1)
		c.checkPlan(p)
	}
	return c, nil
}

// addShards slices a wave's indices into lease units and restores their
// checkpoint files. Checkpoint files are named by the deterministic
// planning coordinates (plan, wave, shard ordinal within the wave) —
// never by the runtime shard id, which depends on the order plans
// happened to finish their first wave in the previous incarnation.
func (c *Coordinator) addShards(plan, wave int, indices []int) {
	for off := 0; off < len(indices); off += c.cfg.ShardSize {
		end := off + c.cfg.ShardSize
		if end > len(indices) {
			end = len(indices)
		}
		sh := &shard{id: len(c.shards), plan: plan, jobs: map[int]Job{}, remaining: map[int]bool{}, slot: map[int]int{}}
		for _, g := range indices[off:end] {
			sh.jobs[g] = c.jobs[g]
			sh.remaining[g] = true
			sh.slot[g] = len(sh.slots)
			sh.slots = append(sh.slots, g)
		}
		if c.cfg.Dir != "" {
			path := filepath.Join(c.cfg.Dir, fmt.Sprintf("shard-p%02d-w%d-%04d.jsonl", plan, wave, off/c.cfg.ShardSize))
			if c.cfg.Resume {
				for k, r := range campaign.LoadCheckpoint[Result](path, len(sh.slots)) {
					g := sh.slots[k]
					// A restored result must name the job planned at its
					// slot; anything else (a stale or foreign file) is
					// dropped and the job simply re-executes.
					if r.Job.Key() != c.jobs[g].Key() || !sh.remaining[g] || c.results[g] != nil {
						continue
					}
					r := r
					c.results[g] = &r
					delete(sh.remaining, g)
					c.sched.observe(r)
					c.stats.Done++
					c.stats.Restored++
				}
			}
			sh.ckpt = campaign.NewCheckpointWriter[Result](&campaign.CheckpointConfig{Path: path, Resume: c.cfg.Resume})
		}
		c.shards = append(c.shards, sh)
	}
}

func (c *Coordinator) emitCampaignStart(plan int, wave []int) {
	if c.cfg.Sink == nil {
		return
	}
	restored := 0
	for _, g := range wave {
		if c.results[g] != nil {
			restored++
		}
	}
	c.cfg.Sink.Emit(obs.Event{Kind: obs.CampaignStart, Scope: c.scope(plan), Run: -1, Done: restored, Total: len(wave)})
}

func (c *Coordinator) scope(plan int) obs.Scope {
	spec := c.cfg.Plans[plan].Spec
	return obs.Scope{System: spec.System, Campaign: spec.Campaign}
}

// Start listens and serves; it returns once the listener is bound, with
// the service running on its own goroutines until Close.
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("fleet: cannot listen on %s: %w", c.cfg.Addr, err)
	}
	c.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/result", c.handleResult)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln)
	return nil
}

// Addr returns the bound listen address.
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close stops the HTTP server and flushes every shard checkpoint. Safe
// to call more than once.
func (c *Coordinator) Close() error {
	var err error
	if c.srv != nil {
		err = c.srv.Close()
		c.srv = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		if sh.ckpt != nil {
			sh.ckpt.Close()
			sh.ckpt = nil
		}
	}
	return err
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now())
	s := c.stats
	s.Drained = c.drainedLocked()
	return s
}

func (c *Coordinator) drainedLocked() bool {
	for _, ps := range c.plans {
		if !ps.finished {
			return false
		}
	}
	return true
}

// touchLocked records that a worker just talked to us.
func (c *Coordinator) touchLocked(name string, now time.Time) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{}
		c.workers[name] = ws
	}
	ws.lastSeen = now
	return ws
}

// AwaitWorkers blocks until every recently-active worker has asked for
// a lease after the drain and been told 410 — so workers exit cleanly
// instead of finding a closed port — or grace elapses. A worker silent
// for a full LeaseTTL is presumed dead and not waited for; call this
// after Wait, before Close. It does not poll: it wakes when a worker is
// told 410, when the next untold worker's LeaseTTL runs out, or at the
// grace deadline.
func (c *Coordinator) AwaitWorkers(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for {
		c.mu.Lock()
		told, now := c.told, time.Now()
		var next time.Time // when the next untold worker is presumed dead
		for _, ws := range c.workers {
			gone := ws.lastSeen.Add(c.cfg.LeaseTTL)
			if !ws.told && gone.After(now) && (next.IsZero() || gone.Before(next)) {
				next = gone
			}
		}
		c.mu.Unlock()
		if next.IsZero() || !now.Before(deadline) {
			return
		}
		if deadline.Before(next) {
			next = deadline
		}
		t := time.NewTimer(next.Sub(now))
		select {
		case <-told:
		case <-t.C:
		}
		t.Stop()
	}
}

// sweepLocked drops expired leases, re-queueing their shards.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, sh := range c.shards {
		kept := sh.leases[:0]
		for _, l := range sh.leases {
			if l.expires.After(now) {
				kept = append(kept, l)
				continue
			}
			c.stats.Expiries++
			fleetExpiries.Inc()
		}
		sh.leases = kept
	}
}

// Wire shapes of the lease protocol.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type indexedJob struct {
	I   int `json:"i"`
	Job Job `json:"job"`
}

type leaseReply struct {
	Lease    int64        `json:"lease"`
	Shard    int          `json:"shard"`
	Spec     Spec         `json:"spec"`
	Jobs     []indexedJob `json:"jobs"`
	TTLMilli int64        `json:"ttlMs"`
}

// resultBatch is the body of POST /v1/result: the results a worker
// executed on one lease, in execution order.
type resultBatch struct {
	Worker  string        `json:"worker"`
	Lease   int64         `json:"lease"`
	Shard   int           `json:"shard"`
	Results []resultEntry `json:"results"`
}

// resultEntry is one executed job of a batch, by global job index.
type resultEntry struct {
	I      int    `json:"i"`
	Result Result `json:"r"`
}

type resultReply struct {
	// Revoked tells the worker its lease is no longer live (expired and
	// re-queued); the batch was still accepted, first write winning per
	// job, but the shard now belongs to somebody else.
	Revoked bool `json:"revoked,omitempty"`
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	status, body := c.grantLease(req)
	if status != http.StatusOK {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// grantLease picks and leases a shard under the lock and returns the
// status plus the marshalled reply. The reply is written to the client
// only after the lock is released, so one stalled worker connection
// cannot block lease handout, result ingestion and status for the rest
// of the fleet.
func (c *Coordinator) grantLease(req leaseRequest) (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	ws := c.touchLocked(req.Worker, now)
	c.sweepLocked(now)
	if c.drainedLocked() {
		ws.told = true
		// Wake AwaitWorkers: this may have been the last live worker.
		close(c.told)
		c.told = make(chan struct{})
		return http.StatusGone, nil
	}
	sh := c.sched.pick(c.shards)
	if sh == nil {
		if sh = c.sched.steal(c.shards, now, c.cfg.LeaseTTL); sh != nil {
			c.stats.Steals++
			fleetSteals.Inc()
		}
	}
	if sh == nil {
		// Everything with work is leased and too small to steal; the
		// worker polls again.
		return http.StatusNoContent, nil
	}
	c.leaseID++
	l := &lease{id: c.leaseID, worker: req.Worker, expires: now.Add(c.cfg.LeaseTTL)}
	sh.leases = append(sh.leases, l)
	rep := leaseReply{
		Lease:    l.id,
		Shard:    sh.id,
		Spec:     c.cfg.Plans[sh.plan].Spec,
		TTLMilli: c.cfg.LeaseTTL.Milliseconds(),
	}
	for g := range sh.remaining {
		rep.Jobs = append(rep.Jobs, indexedJob{I: g, Job: sh.jobs[g]})
	}
	// Ascending order so a worker executes — and checkpoints land — in
	// run order within the shard.
	sortIndexedJobs(rep.Jobs)
	c.stats.Leases++
	c.stats.LeasedJobs += int64(len(rep.Jobs))
	fleetLeases.Inc()
	body, err := json.Marshal(rep)
	if err != nil {
		return http.StatusInternalServerError, nil
	}
	return http.StatusOK, body
}

func sortIndexedJobs(js []indexedJob) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k].I < js[k-1].I; k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var batch resultBatch
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	status, body := c.acceptBatch(batch)
	if status != http.StatusOK {
		http.Error(w, string(body), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// acceptBatch validates and ingests one lease's batch under the lock,
// returning the status plus the reply (marshalled reply on 200, error
// text otherwise); like grantLease, the caller writes it only after the
// lock is released. The batch is all or nothing: every entry is
// validated before the first is ingested, so a refused batch leaves no
// result, checkpoint line or sink event behind.
func (c *Coordinator) acceptBatch(batch resultBatch) (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchLocked(batch.Worker, now)
	c.sweepLocked(now)
	if len(batch.Results) == 0 {
		// Also what a per-job post from an older worker decodes to.
		return http.StatusBadRequest, []byte("result batch holds no results")
	}
	if batch.Shard < 0 || batch.Shard >= len(c.shards) {
		return http.StatusBadRequest, []byte("unknown shard")
	}
	sh := c.shards[batch.Shard]
	var refused string
	mismatched := 0
	for _, e := range batch.Results {
		if _, ok := sh.jobs[e.I]; !ok {
			if refused == "" {
				refused = fmt.Sprintf("job %d not in shard %d", e.I, batch.Shard)
			}
			continue
		}
		// A posted result must echo the job planned at its index: a
		// version-skewed worker whose planning enumerates points
		// differently fails loudly here instead of silently filling the
		// wrong slot in the result table and the checkpoint.
		if got, want := e.Result.Job.Key(), c.jobs[e.I].Key(); got != want {
			mismatched++
			if refused == "" {
				refused = fmt.Sprintf("job mismatch at index %d: posted %s, planned %s", e.I, got, want)
			}
		}
	}
	if refused != "" {
		c.stats.Rejected += int64(mismatched)
		return http.StatusBadRequest, []byte(refused)
	}
	rep := resultReply{Revoked: true}
	for _, l := range sh.leases {
		if l.id == batch.Lease {
			l.expires = now.Add(c.cfg.LeaseTTL)
			rep.Revoked = false
			break
		}
	}
	// Results are accepted even off an expired lease — execution is
	// deterministic, so a late result is identical to the one a
	// replacement worker would produce; first write wins either way.
	for _, e := range batch.Results {
		c.ingestLocked(sh, e.I, e.Result)
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return http.StatusInternalServerError, []byte("encoding reply")
	}
	return http.StatusOK, body
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s := c.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s)
}

// ingestLocked folds one result in: first write wins, checkpoint,
// feedback, sink events, wave bookkeeping.
func (c *Coordinator) ingestLocked(sh *shard, g int, res Result) {
	if g < 0 || g >= len(c.results) || !sh.remaining[g] || c.results[g] != nil {
		c.stats.Duplicates++
		fleetDupes.Inc()
		return
	}
	r := res
	c.results[g] = &r
	delete(sh.remaining, g)
	if sh.ckpt != nil {
		// Checkpoint lines are keyed by the job's stable slot within the
		// shard, not its incarnation-dependent global index.
		sh.ckpt.Append(sh.slot[g], res)
	}
	c.sched.observe(res)
	c.stats.Done++
	fleetJobs.Inc()
	c.emitRunDone(sh.plan, res)
	c.checkPlan(sh.plan)
}

// emitRunDone re-emits the run's phase spans and its RunDone on the
// coordinator sink, in the per-plan campaign scope.
func (c *Coordinator) emitRunDone(plan int, res Result) {
	if c.cfg.Sink == nil {
		return
	}
	sc := c.scope(plan)
	for _, sp := range res.Spans {
		c.cfg.Sink.Emit(obs.Event{Kind: obs.PhaseEnd, Scope: sc, Run: res.Job.Run, Phase: sp.Phase, Wall: sp.Wall, Sim: sp.Sim})
	}
	ps := c.plans[plan]
	done := 0
	for _, g := range ps.wave1 {
		if c.results[g] != nil {
			done++
		}
	}
	total := len(ps.wave1)
	if ps.planned {
		done, total = 0, len(ps.retry)
		for _, g := range ps.retry {
			if c.results[g] != nil {
				done++
			}
		}
	}
	ev := obs.Event{
		Kind: obs.RunDone, Scope: sc, Run: res.Job.Run, Done: done, Total: total,
		Crash: res.Job.Point, Outcome: res.Outcome, Sim: res.Duration, Target: res.Target,
	}
	if res.Fault != nil {
		ev.Fault = res.Fault.Kind
	}
	c.cfg.Sink.Emit(ev)
}

// checkPlan advances a plan's wave machinery: when wave 1 completes, it
// plans the retry wave (NotHit jobs re-executed at the plan's
// RetryScale — the single-process retry-at-final-scale rule); when the
// final wave completes, the plan is finished.
func (c *Coordinator) checkPlan(plan int) {
	ps := c.plans[plan]
	if ps.finished {
		return
	}
	wave := ps.wave1
	if ps.planned {
		wave = ps.retry
	}
	for _, g := range wave {
		if c.results[g] == nil {
			return
		}
	}
	if !ps.planned {
		ps.planned = true
		retrying := c.planRetryLocked(plan)
		c.emitCampaignEnd(plan, ps.wave1)
		if retrying {
			c.emitCampaignStart(plan, ps.retry)
			// Restored retry results may already complete the wave.
			c.checkPlan(plan)
			return
		}
	} else {
		c.emitCampaignEnd(plan, ps.retry)
	}
	ps.finished = true
	if c.drainedLocked() {
		close(c.done)
	}
}

func (c *Coordinator) emitCampaignEnd(plan int, wave []int) {
	if c.cfg.Sink == nil {
		return
	}
	bugs := 0
	for _, g := range wave {
		if r := c.results[g]; r != nil && r.Failing {
			bugs++
		}
	}
	c.cfg.Sink.Emit(obs.Event{Kind: obs.CampaignEnd, Scope: c.scope(plan), Run: -1, Done: len(wave), Total: len(wave), Bugs: bugs})
}

// planRetryLocked creates the plan's retry wave and reports whether one
// was needed. Retry jobs carry their own run ordinals (0-based within
// the retry campaign) and the retry scale, exactly like the scaled
// Tester copy of the single-process test phase.
func (c *Coordinator) planRetryLocked(plan int) bool {
	ps := c.plans[plan]
	rs := ps.plan.RetryScale
	if rs <= ps.plan.Spec.Scale {
		return false
	}
	var retry []int
	run := 0
	for _, g := range ps.wave1 {
		if c.results[g].Outcome != OutcomeNotHit {
			continue
		}
		j := c.jobs[g]
		j.Scale = rs
		j.Run = run
		run++
		ng := len(c.jobs)
		c.jobs = append(c.jobs, j)
		c.planOf = append(c.planOf, plan)
		c.results = append(c.results, nil)
		ps.origOf[ng] = g
		retry = append(retry, ng)
	}
	if len(retry) == 0 {
		return false
	}
	ps.retry = retry
	c.stats.Total = len(c.jobs)
	c.addShards(plan, 2, retry)
	return true
}

// PlanResult is one plan's final merged outcome: wave-1 results with
// the retry wave folded back over its originals, in run order.
type PlanResult struct {
	Spec    Spec
	Results []Result
}

// Wait blocks until every plan finishes, then delivers the run records
// (plan order, wave order, run order — the single-process recording
// order) and returns the merged per-plan results.
func (c *Coordinator) Wait() []PlanResult {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.recorded {
		c.recorded = true
		if rec := c.cfg.Recorder; rec != nil {
			for _, ps := range c.plans {
				for _, g := range ps.wave1 {
					rec.Record(c.results[g].RunRecord())
				}
				for _, g := range ps.retry {
					rec.Record(c.results[g].RunRecord())
				}
			}
		}
	}
	out := make([]PlanResult, len(c.plans))
	for p, ps := range c.plans {
		pr := PlanResult{Spec: ps.plan.Spec, Results: make([]Result, len(ps.wave1))}
		for i, g := range ps.wave1 {
			pr.Results[i] = *c.results[g]
		}
		for _, g := range ps.retry {
			orig := ps.origOf[g]
			for i, og := range ps.wave1 {
				if og == orig {
					pr.Results[i] = *c.results[g]
					break
				}
			}
		}
		out[p] = pr
	}
	return out
}
