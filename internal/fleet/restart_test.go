// Multi-plan coordinator-restart coverage. Retry waves are planned in
// plan-COMPLETION order on a live run but in plan order on -resume, so
// retry jobs' global indices and shard ids differ across incarnations;
// these tests pin that checkpoints are keyed by coordinates that do NOT
// move (plan, wave, shard ordinal, slot) and that every restored — and
// every posted — result must name the exact job planned at its index.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// restartPlan builds a synthetic n-job plan whose every job is eligible
// for the retry wave (RetryScale 2 > Scale 1).
func restartPlan(system string, n int) Plan {
	p := Plan{Spec: Spec{System: system, Campaign: "test", Seed: 7, Scale: 1}, RetryScale: 2}
	for i := 0; i < n; i++ {
		p.Jobs = append(p.Jobs, Job{
			System: system, Campaign: "test", Run: i, Seed: 7, Scale: 1,
			Point: fmt.Sprintf("%s.point#%d", system, i), Scenario: "pre-read",
		})
	}
	return p
}

func mustLease(t *testing.T, c *Coordinator) leaseReply {
	t.Helper()
	status, body := c.grantLease(leaseRequest{Worker: "t"})
	if status != http.StatusOK {
		t.Fatalf("grantLease: status %d, want 200", status)
	}
	var rep leaseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("grantLease reply: %v", err)
	}
	return rep
}

// oneEntry is a batch holding a single result on rep's lease.
func oneEntry(worker string, rep leaseReply, i int, res Result) resultBatch {
	return resultBatch{Worker: worker, Lease: rep.Lease, Shard: rep.Shard, Results: []resultEntry{{I: i, Result: res}}}
}

func mustPost(t *testing.T, c *Coordinator, rep leaseReply, ij indexedJob, outcome, target string) {
	t.Helper()
	res := Result{Job: ij.Job, Outcome: outcome, Target: target, Exceptions: []string{}, Witnesses: []string{}}
	status, body := c.acceptBatch(oneEntry("t", rep, ij.I, res))
	if status != http.StatusOK {
		t.Fatalf("acceptBatch(%s): status %d: %s", ij.Job.Key(), status, body)
	}
}

// TestFleetMultiPlanRestartRetryWaves is the regression test for
// cross-plan checkpoint corruption: incarnation 1 completes plan B's
// first wave before plan A's, so B's retry shards are created first and
// occupy the low global indices; the resumed incarnation re-plans
// retries in plan order (A first), flipping both the indices and the
// shard ids. Every restored result must still land on its own plan's
// job.
func TestFleetMultiPlanRestartRetryWaves(t *testing.T) {
	dir := t.TempDir()
	newCoord := func(resume bool) *Coordinator {
		c, err := New(Config{
			Plans:     []Plan{restartPlan("sysA", 4), restartPlan("sysB", 4)},
			ShardSize: 2,
			LeaseTTL:  time.Minute,
			Dir:       dir,
			Resume:    resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Incarnation 1. Wave-1 shards are 0,1 (sysA) and 2,3 (sysB); lease
	// them all up front, then complete them B-first so B's retry wave is
	// planned before A's.
	c1 := newCoord(false)
	wave1 := map[string][]leaseReply{}
	for i := 0; i < 4; i++ {
		rep := mustLease(t, c1)
		wave1[rep.Spec.System] = append(wave1[rep.Spec.System], rep)
	}
	for _, sys := range []string{"sysB", "sysA"} {
		for _, rep := range wave1[sys] {
			for _, ij := range rep.Jobs {
				mustPost(t, c1, rep, ij, OutcomeNotHit, "")
			}
		}
	}
	// Both retry waves are planned now — B's shards (ids 4,5) before
	// A's (ids 6,7). Lease all four and complete each shard's FIRST job
	// with a marker naming its plan, leaving the second job unfinished.
	for i := 0; i < 4; i++ {
		rep := mustLease(t, c1)
		if len(rep.Jobs) != 2 || rep.Jobs[0].Job.Scale != 2 {
			t.Fatalf("retry lease: got %d jobs at scale %d, want 2 jobs at scale 2", len(rep.Jobs), rep.Jobs[0].Job.Scale)
		}
		mustPost(t, c1, rep, rep.Jobs[0], "injected-ok", rep.Spec.System+"-retry")
	}
	if st := c1.Stats(); st.Done != 12 || st.Total != 16 {
		t.Fatalf("incarnation 1: Done/Total = %d/%d, want 12/16", st.Done, st.Total)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2 resumes over the same checkpoint directory, planning
	// retries in plan order this time.
	c2 := newCoord(true)
	defer c2.Close()
	st := c2.Stats()
	if st.Restored != 12 || st.Done != 12 || st.Total != 16 {
		t.Fatalf("resume: Restored/Done/Total = %d/%d/%d, want 12/12/16", st.Restored, st.Done, st.Total)
	}
	// The invariant the old shard-id-keyed files violated: every restored
	// result names the job planned at its slot.
	c2.mu.Lock()
	for g, r := range c2.results {
		if r != nil && r.Job.Key() != c2.jobs[g].Key() {
			t.Errorf("restored result at index %d is for %s, planned job is %s", g, r.Job.Key(), c2.jobs[g].Key())
		}
	}
	c2.mu.Unlock()

	// Finish the campaign: the remaining retry jobs lease out and run.
	for {
		status, body := c2.grantLease(leaseRequest{Worker: "t"})
		if status == http.StatusGone {
			break
		}
		if status != http.StatusOK {
			t.Fatalf("finishing lease: status %d: %s", status, body)
		}
		var rep leaseReply
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		for _, ij := range rep.Jobs {
			mustPost(t, c2, rep, ij, "injected-ok", rep.Spec.System+"-fresh")
		}
	}
	st = c2.Stats()
	if !st.Drained || st.Duplicates != 0 || st.Rejected != 0 {
		t.Fatalf("finish: stats %+v, want drained with 0 duplicates/rejections", st)
	}

	// The merged tables: all 4 slots per plan were retried at scale 2;
	// slots 0 and 2 (each retry shard's first job) carry incarnation 1's
	// restored marker, slots 1 and 3 incarnation 2's.
	for _, pr := range c2.Wait() {
		if len(pr.Results) != 4 {
			t.Fatalf("%s: %d results, want 4", pr.Spec.System, len(pr.Results))
		}
		for i, res := range pr.Results {
			if res.Job.System != pr.Spec.System {
				t.Errorf("%s result %d executed %s's job %s", pr.Spec.System, i, res.Job.System, res.Job.Key())
			}
			if res.Job.Scale != 2 {
				t.Errorf("%s result %d at scale %d, want retry scale 2", pr.Spec.System, i, res.Job.Scale)
			}
			want := pr.Spec.System + "-fresh"
			if i%2 == 0 {
				want = pr.Spec.System + "-retry"
			}
			if res.Target != want {
				t.Errorf("%s result %d target = %q, want %q", pr.Spec.System, i, res.Target, want)
			}
		}
	}
}

// TestFleetResultJobMismatchRejected pins that a posted result must
// echo the job planned at its index: a mismatch (version-skewed worker,
// stale shard) is refused with a 400 and counted, never silently
// ingested into the wrong slot.
func TestFleetResultJobMismatchRejected(t *testing.T) {
	c, err := New(Config{Plans: []Plan{restartPlan("sysA", 2)}, ShardSize: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := mustLease(t, c)

	bad := rep.Jobs[0].Job
	bad.Point = "sysA.other#9"
	status, body := c.acceptBatch(oneEntry("t", rep, rep.Jobs[0].I, Result{Job: bad, Outcome: "injected-ok"}))
	if status != http.StatusBadRequest {
		t.Fatalf("mismatched job: status %d (%s), want 400", status, body)
	}
	status, body = c.acceptBatch(oneEntry("t", rep, 99, Result{Job: rep.Jobs[0].Job, Outcome: "injected-ok"}))
	if status != http.StatusBadRequest {
		t.Fatalf("job outside shard: status %d (%s), want 400", status, body)
	}
	if st := c.Stats(); st.Done != 0 || st.Rejected != 1 {
		t.Fatalf("after rejections: Done = %d, Rejected = %d, want 0 and 1", st.Done, st.Rejected)
	}
	// The genuine result still lands.
	mustPost(t, c, rep, rep.Jobs[0], "injected-ok", "")
	if st := c.Stats(); st.Done != 1 {
		t.Fatalf("after valid post: Done = %d, want 1", st.Done)
	}
}
