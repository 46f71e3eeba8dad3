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
// runs the leased jobs in order, and streams results — with their phase
// spans — back. A worker holds no campaign state of its own; killing
// one mid-shard loses nothing, because the coordinator re-queues the
// lease after its TTL and the replacement re-executes only the jobs
// that never posted.
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
	type execKey struct {
		spec  string
		scale int
	}
	execs := map[execKey]Executor{}
	executed, transportErrs := 0, 0
	for {
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
		spec := rep.Spec.Key()
		w.logf("%s: leased shard %d (%d jobs, %s)", name, rep.Shard, len(rep.Jobs), spec)
		for _, ij := range rep.Jobs {
			if w.MaxJobs > 0 && executed >= w.MaxJobs {
				w.logf("%s: job budget spent, stopping mid-shard", name)
				return nil
			}
			key := execKey{spec, ij.Job.Scale}
			exec := execs[key]
			if exec == nil {
				exec, err = w.Factory(rep.Spec, ij.Job.Scale)
				if err != nil {
					return fmt.Errorf("fleet: executor for %s at scale %d: %w", spec, ij.Job.Scale, err)
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
			executed++
			revoked, reject, err := w.post(client, name, rep, ij.I, res)
			if err != nil {
				return fmt.Errorf("fleet: posting result: %w", err)
			}
			if reject != "" {
				// The coordinator refused the result — the shard is stale
				// (a restarted coordinator re-planned it) or the plans
				// disagree (version skew). Either way the shard is not
				// ours to finish; abandon it and lease afresh so the
				// coordinator's view wins.
				w.logf("%s: result for job %d on shard %d rejected (%s), abandoning lease %d", name, ij.I, rep.Shard, reject, rep.Lease)
				break
			}
			if revoked {
				// The lease expired and the shard was handed elsewhere;
				// abandon the remainder and lease afresh.
				w.logf("%s: lease %d revoked, abandoning shard %d", name, rep.Lease, rep.Shard)
				break
			}
		}
	}
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

// post streams one result back; retries transport errors so a briefly
// restarting coordinator doesn't lose a finished run. A non-empty
// reject means the coordinator refused the result (4xx) — the caller
// abandons the shard rather than treating it as fatal, since the usual
// cause is a stale lease against a restarted coordinator.
func (w *Worker) post(client *http.Client, name string, lease leaseReply, i int, res Result) (revoked bool, reject string, err error) {
	body, _ := json.Marshal(resultPost{Worker: name, Lease: lease.Lease, Shard: lease.Shard, I: i, Result: res})
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
