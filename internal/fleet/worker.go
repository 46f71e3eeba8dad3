package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
)

// Worker is the execution half of the fleet: it leases shards from a
// coordinator, builds (and caches) the executor for each campaign spec,
// runs the leased jobs in order, and posts the shard's results — with
// their phase spans — back in one batch when the shard ends (a shard
// that outlasts a third of the lease TTL also posts its progress on the
// way, which renews the lease). A worker holds no campaign state of its
// own; killing one mid-shard loses at most that shard's unposted
// results, because the coordinator re-queues the lease after its TTL
// and the replacement re-executes only the jobs that never posted.
type Worker struct {
	// Base is the coordinator's base URL ("http://127.0.0.1:7070").
	Base string
	// Name identifies the worker in leases and logs (default
	// "worker-<pid>").
	Name string
	// Factory builds executors per campaign spec and scale; required.
	Factory ExecutorFactory
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Poll is the sleep between empty lease polls and transport-error
	// retries (default 100ms).
	Poll time.Duration
	// MaxJobs, when positive, stops the worker after that many executed
	// jobs — tests use it to simulate a worker crash mid-shard.
	MaxJobs int
	// StallTimeout, when positive, bounds each job's wall-clock runtime:
	// a job still running past it is abandoned (its goroutine leaks until
	// the executor returns on its own) and posted as a harness-error
	// result naming the stall, so a livelocked model surfaces as an
	// actionable report instead of an endlessly re-expiring lease.
	StallTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// spanCapture collects PhaseEnd events emitted by an executor while a
// job runs, to be shipped as the result's span refs.
type spanCapture struct {
	spans []SpanRef
}

func (c *spanCapture) Emit(ev obs.Event) {
	if ev.Kind != obs.PhaseEnd {
		return
	}
	c.spans = append(c.spans, SpanRef{Phase: ev.Phase, Wall: ev.Wall, Sim: ev.Sim})
}

// execKey names a cached executor: one per campaign spec and scale.
type execKey struct {
	spec  string
	scale int
}

// transient transport errors tolerated in a row before the worker gives
// up on the coordinator.
const maxTransportErrors = 50

// Run leases and executes until the coordinator reports the fleet
// drained (nil), the MaxJobs budget is spent (nil), or the coordinator
// stays unreachable (error).
func (w *Worker) Run() error {
	if w.Factory == nil {
		return fmt.Errorf("fleet: worker needs a Factory")
	}
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	name := w.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	execs := map[execKey]Executor{}
	executed, transportErrs := 0, 0
	for {
		if w.MaxJobs > 0 && executed >= w.MaxJobs {
			// Checked before leasing: a lease the worker cannot run
			// would strand its shard for a whole TTL.
			w.logf("%s: job budget spent after %d jobs", name, executed)
			return nil
		}
		rep, status, err := w.lease(client, name)
		if err != nil {
			transportErrs++
			if transportErrs >= maxTransportErrors {
				return fmt.Errorf("fleet: coordinator unreachable: %w", err)
			}
			time.Sleep(poll)
			continue
		}
		transportErrs = 0
		switch status {
		case http.StatusGone:
			w.logf("%s: fleet drained after %d jobs", name, executed)
			return nil
		case http.StatusNoContent:
			time.Sleep(poll)
			continue
		}
		w.logf("%s: leased shard %d (%d jobs, %s)", name, rep.Shard, len(rep.Jobs), rep.Spec.Key())
		if err := w.runShard(client, name, rep, execs, &executed); err != nil {
			return err
		}
	}
}

// runShard executes a lease's jobs in order and posts their results in
// one batch when the shard ends. A shard that runs long posts the
// results it has so far once renewAfter(TTL) has passed since the
// lease was granted or last renewed, so a healthy worker keeps its
// lease however long the shard takes. It stops early, after posting
// what it ran, when the MaxJobs budget is spent, an executor cannot be
// built (the error), or a progress post comes back refused or revoked:
// the shard then belongs to somebody else, and the worker leases
// afresh.
func (w *Worker) runShard(client *http.Client, name string, rep leaseReply, execs map[execKey]Executor, executed *int) error {
	spec := rep.Spec.Key()
	renewEvery := renewAfter(time.Duration(rep.TTLMilli) * time.Millisecond)
	renewed := time.Now()
	batch := make([]resultEntry, 0, len(rep.Jobs))
	// flush posts the batch and reports whether the lease is still ours.
	flush := func() (bool, error) {
		if len(batch) == 0 {
			return true, nil
		}
		revoked, reject, err := w.post(client, name, rep, batch)
		batch, renewed = batch[:0], time.Now()
		switch {
		case err != nil:
			return false, fmt.Errorf("fleet: posting results: %w", err)
		case reject != "":
			// The coordinator refused the batch — the shard is stale
			// (a restarted coordinator re-planned it) or the plans
			// disagree (version skew). Either way the shard is not
			// ours; lease afresh so the coordinator's view wins.
			w.logf("%s: batch for shard %d on lease %d rejected (%s)", name, rep.Shard, rep.Lease, reject)
			return false, nil
		case revoked:
			// The lease expired and the shard was handed elsewhere;
			// the batch still counted, first write winning per job.
			w.logf("%s: lease %d on shard %d was revoked", name, rep.Lease, rep.Shard)
			return false, nil
		}
		return true, nil
	}
	for k, ij := range rep.Jobs {
		if w.MaxJobs > 0 && *executed >= w.MaxJobs {
			// A budget-stopped worker's prefix is still finished work.
			_, err := flush()
			return err
		}
		key := execKey{spec, ij.Job.Scale}
		exec := execs[key]
		if exec == nil {
			var err error
			if exec, err = w.Factory(rep.Spec, ij.Job.Scale); err != nil {
				err = fmt.Errorf("fleet: executor for %s at scale %d: %w", spec, ij.Job.Scale, err)
				if _, perr := flush(); perr != nil {
					err = perr
				}
				return err
			}
			execs[key] = exec
		}
		// A fresh capture per job: a stalled run's abandoned goroutine
		// keeps emitting into the capture it was armed with, so later
		// jobs must never share it.
		cap := &spanCapture{}
		if ss, ok := exec.(interface{ SetSink(obs.Sink) }); ok {
			ss.SetSink(cap)
		}
		res, stalled := w.execute(exec, ij.Job)
		if stalled {
			// The abandoned goroutine still owns this executor (and
			// its capture, so we do not read it): evict the executor
			// so the next job on this spec builds a fresh one instead
			// of racing a still-running Execute.
			delete(execs, key)
		} else {
			res.Spans = append([]SpanRef(nil), cap.spans...)
		}
		*executed++
		batch = append(batch, resultEntry{I: ij.I, Result: res})
		if renewEvery > 0 && k < len(rep.Jobs)-1 && time.Since(renewed) >= renewEvery {
			if ours, err := flush(); !ours {
				return err
			}
		}
	}
	_, err := flush()
	return err
}

// execute runs one job, arming the stall watchdog when configured; the
// stalled return tells the caller the executor's goroutine is still
// running and both the executor and its span capture must be abandoned.
func (w *Worker) execute(exec Executor, j Job) (res Result, stalled bool) {
	if w.StallTimeout <= 0 {
		return exec.Execute(j), false
	}
	done := make(chan Result, 1)
	go func() { done <- exec.Execute(j) }()
	t := time.NewTimer(w.StallTimeout)
	defer t.Stop()
	select {
	case res := <-done:
		return res, false
	case <-t.C:
		return Result{
			Job:     j,
			Outcome: OutcomeHarnessError,
			Reason:  fmt.Sprintf("run stalled past %s (point %d, %s)", w.StallTimeout, j.Run, j.Scenario),
		}, true
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) lease(client *http.Client, name string) (leaseReply, int, error) {
	body, _ := json.Marshal(leaseRequest{Worker: name})
	resp, err := client.Post(w.Base+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return leaseReply{}, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusGone, http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return leaseReply{}, resp.StatusCode, nil
	case http.StatusOK:
		var rep leaseReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return leaseReply{}, 0, err
		}
		return rep, http.StatusOK, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return leaseReply{}, 0, fmt.Errorf("lease: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// post sends one lease's batch back; retries transport errors so a
// briefly restarting coordinator doesn't lose finished runs. A non-empty
// reject means the coordinator refused the batch (4xx) — the caller
// abandons the shard rather than treating it as fatal, since the usual
// cause is a stale lease against a restarted coordinator.
func (w *Worker) post(client *http.Client, name string, lease leaseReply, batch []resultEntry) (revoked bool, reject string, err error) {
	body, _ := json.Marshal(resultBatch{Worker: name, Lease: lease.Lease, Shard: lease.Shard, Results: batch})
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		resp, perr := client.Post(w.Base+"/v1/result", "application/json", bytes.NewReader(body))
		if perr != nil {
			if attempt >= maxTransportErrors {
				return false, "", perr
			}
			time.Sleep(poll)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return false, fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(msg)), nil
			}
			return false, "", fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		var rep resultReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return false, "", err
		}
		return rep.Revoked, "", nil
	}
}
