// The result batch contract: a worker posts one batch per lease, and
// the coordinator takes it whole or not at all — every entry is
// validated before the first is ingested, so a refused batch leaves no
// result, checkpoint line or count behind.
package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shardLines reads a shard checkpoint file's {"i","r"} lines in order.
func shardLines(t *testing.T, path string) []resultEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []resultEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e resultEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, sc.Text(), err)
		}
		out = append(out, e)
	}
	return out
}

// batchOf is a batch of the lease's jobs in lease order, each result
// echoing its job.
func batchOf(rep leaseReply) resultBatch {
	b := resultBatch{Worker: "t", Lease: rep.Lease, Shard: rep.Shard}
	for _, ij := range rep.Jobs {
		b.Results = append(b.Results, resultEntry{I: ij.I, Result: Result{Job: ij.Job, Outcome: "injected-ok", Exceptions: []string{}, Witnesses: []string{}}})
	}
	return b
}

func TestFleetResultBatchAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Plans: []Plan{restartPlan("sysA", 8)}, ShardSize: 4, LeaseTTL: time.Minute, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ckpt := func(ordinal int) string { return filepath.Join(dir, fmt.Sprintf("shard-p00-w1-%04d.jsonl", ordinal)) }

	// A full shard's batch: every slot done, one checkpoint line per
	// slot in slot order, the lease still live.
	first := mustLease(t, c)
	status, body := c.acceptBatch(batchOf(first))
	if status != http.StatusOK {
		t.Fatalf("full batch: status %d: %s", status, body)
	}
	var rep resultReply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Revoked {
		t.Fatalf("full batch reply %s (%v), want revoked:false", body, err)
	}
	if st := c.Stats(); st.Done != 4 || st.Rejected != 0 || st.Duplicates != 0 {
		t.Fatalf("after full batch: stats %+v, want Done 4 and nothing refused", st)
	}
	lines := shardLines(t, ckpt(0))
	if len(lines) != len(first.Jobs) {
		t.Fatalf("checkpoint holds %d lines, want %d", len(lines), len(first.Jobs))
	}
	for k, ln := range lines {
		if ln.I != k || ln.Result.Job.Key() != first.Jobs[k].Job.Key() {
			t.Errorf("checkpoint line %d: slot %d job %s, want slot %d job %s", k, ln.I, ln.Result.Job.Key(), k, first.Jobs[k].Job.Key())
		}
	}

	// One mismatched entry, behind a valid one, refuses the whole batch.
	second := mustLease(t, c)
	bad := batchOf(second)
	bad.Results[1].Result.Job.Point = "sysA.other#9"
	if status, body := c.acceptBatch(bad); status != http.StatusBadRequest || !strings.Contains(string(body), "mismatch") {
		t.Fatalf("mismatched batch: status %d (%s), want 400 naming the mismatch", status, body)
	}
	if st := c.Stats(); st.Done != 4 || st.Rejected != 1 {
		t.Fatalf("after mismatched batch: Done = %d, Rejected = %d, want 4 and 1", st.Done, st.Rejected)
	}
	c.mu.Lock()
	for _, ij := range second.Jobs {
		if c.results[ij.I] != nil {
			t.Errorf("refused batch ingested job %d", ij.I)
		}
	}
	c.mu.Unlock()
	if lines := shardLines(t, ckpt(1)); len(lines) != 0 {
		t.Fatalf("refused batch wrote %d checkpoint lines, want none", len(lines))
	}

	// An empty batch, and the per-job body an older worker would post,
	// are refused through the endpoint itself.
	empty, _ := json.Marshal(resultBatch{Worker: "t", Lease: second.Lease, Shard: second.Shard})
	ij := second.Jobs[0]
	oldShape, _ := json.Marshal(map[string]any{
		"worker": "t", "lease": second.Lease, "shard": second.Shard,
		"i": ij.I, "r": Result{Job: ij.Job, Outcome: "injected-ok"},
	})
	for name, b := range map[string][]byte{"empty batch": empty, "per-job body": oldShape} {
		w := httptest.NewRecorder()
		c.handleResult(w, httptest.NewRequest(http.MethodPost, "/v1/result", strings.NewReader(string(b))))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, w.Code, w.Body)
		}
	}
	if st := c.Stats(); st.Done != 4 || st.Rejected != 1 {
		t.Fatalf("after refused bodies: Done = %d, Rejected = %d, want 4 and 1", st.Done, st.Rejected)
	}

	// The genuine batch still lands and finishes the plan.
	if status, body := c.acceptBatch(batchOf(second)); status != http.StatusOK {
		t.Fatalf("valid batch after refusals: status %d: %s", status, body)
	}
	if st := c.Stats(); st.Done != 8 || !st.Drained {
		t.Fatalf("after valid batch: stats %+v, want Done 8 and drained", st)
	}
}

// TestFleetStealWaitsForOverdueLease pins when an idle worker may
// co-lease a leased shard: a thief cannot see how far a batch-posting
// owner got, so a fresh lease is never stolen (the thief would only run
// the shard a second time), while a lease with less than half its TTL
// left is raced like a straggler.
func TestFleetStealWaitsForOverdueLease(t *testing.T) {
	c, err := New(Config{Plans: []Plan{restartPlan("sysA", 4)}, ShardSize: 4, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owner := mustLease(t, c)
	if status, _ := c.grantLease(leaseRequest{Worker: "thief"}); status != http.StatusNoContent {
		t.Fatalf("lease beside a fresh lease: status %d, want 204 (no steal)", status)
	}
	c.mu.Lock()
	c.shards[owner.Shard].leases[0].expires = time.Now().Add(c.cfg.LeaseTTL/2 - time.Second)
	c.mu.Unlock()
	thief := mustLease(t, c)
	if thief.Shard != owner.Shard || len(thief.Jobs) != len(owner.Jobs) {
		t.Fatalf("steal leased shard %d with %d jobs, want the overdue shard %d with %d", thief.Shard, len(thief.Jobs), owner.Shard, len(owner.Jobs))
	}
	if st := c.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
}

// slowExec is a fake executor whose every job takes d of wall clock.
type slowExec struct{ d time.Duration }

func (e slowExec) Execute(j Job) Result {
	time.Sleep(e.d)
	return Result{Job: j, Outcome: "injected-ok"}
}

// TestFleetLongShardKeepsItsLease runs one shard that takes longer than
// the lease TTL beside an idle second worker: the owner's progress
// posts renew its lease, so the shard is neither swept nor stolen and
// no job runs twice.
func TestFleetLongShardKeepsItsLease(t *testing.T) {
	const jobs, jobTime, ttl = 40, 20 * time.Millisecond, 600 * time.Millisecond
	c, err := New(Config{Addr: "127.0.0.1:0", Plans: []Plan{restartPlan("sysA", jobs)}, ShardSize: jobs, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, name := range []string{"owner", "idle"} {
		w := &Worker{
			Base:    "http://" + c.Addr(),
			Name:    name,
			Factory: func(Spec, int) (Executor, error) { return slowExec{jobTime}, nil },
			Poll:    time.Millisecond,
		}
		go func() { errs <- w.Run() }()
		if name == "owner" {
			// The owner takes the only shard before the idle worker polls.
			for c.Stats().Leases == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	prs := c.Wait()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(prs) != 1 || len(prs[0].Results) != jobs {
		t.Fatalf("results shape %+v, want one plan of %d", prs, jobs)
	}
	if st := c.Stats(); st.Expiries != 0 || st.Steals != 0 || st.Duplicates != 0 || st.Leases != 1 {
		t.Fatalf("stats %+v, want one lease and no expiry, steal or duplicate", st)
	}
}

// TestFleetWorkerBudgetStopsBeforeLeasing pins that a worker whose
// MaxJobs budget runs out at a shard boundary returns without taking a
// lease it cannot run.
func TestFleetWorkerBudgetStopsBeforeLeasing(t *testing.T) {
	c, err := New(Config{Addr: "127.0.0.1:0", Plans: []Plan{restartPlan("sysA", 4)}, ShardSize: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Base:    "http://" + c.Addr(),
		Factory: func(Spec, int) (Executor, error) { return slowExec{}, nil },
		Poll:    time.Millisecond,
		MaxJobs: 2,
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Done != 2 || st.Leases != 1 {
		t.Fatalf("stats %+v, want Done 2 on a single lease", st)
	}
}
