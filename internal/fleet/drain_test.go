// Signalled drain: AwaitWorkers wakes when a worker is told 410 or when
// an untold worker's LeaseTTL runs out, not on a timer of its own, so
// these tests time how long after each event it returns.
package fleet

import (
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"
)

// TestFleetDrainSignalled pins both wake-ups of AwaitWorkers after Wait:
// it returns right after the last live worker's 410, and a worker that
// never asks again stops being waited for once its LeaseTTL runs out.
func TestFleetDrainSignalled(t *testing.T) {
	const ttl = 200 * time.Millisecond
	c, err := New(Config{Plans: []Plan{restartPlan("sysA", 2)}, ShardSize: 2, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := mustLease(t, c)
	for _, ij := range rep.Jobs {
		mustPost(t, c, rep, ij, "injected-ok", "")
	}
	c.Wait()
	// latePost makes worker a live, untold worker with a duplicate post.
	latePost := func(worker string) {
		t.Helper()
		post := oneEntry(worker, rep, rep.Jobs[0].I, Result{Job: rep.Jobs[0].Job, Outcome: "injected-ok"})
		if status, body := c.acceptBatch(post); status != http.StatusOK {
			t.Fatalf("duplicate post: status %d: %s", status, body)
		}
	}

	// In each round one live worker — first "t", which posted the
	// campaign's results, then a late poster — asks for a lease 5 ms into
	// AwaitWorkers and is told 410. A drain that polled every 20 ms would
	// return about 15 ms after that; the median of five rounds keeps one
	// scheduling hiccup from failing the test.
	lags := make([]time.Duration, 5)
	for i := range lags {
		worker := "t"
		if i > 0 {
			worker = fmt.Sprintf("late%d", i)
			latePost(worker)
		}
		told := make(chan time.Time, 1)
		time.AfterFunc(5*time.Millisecond, func() {
			at := time.Now()
			if status, _ := c.grantLease(leaseRequest{Worker: worker}); status != http.StatusGone {
				t.Errorf("lease after the drain: status %d, want 410", status)
			}
			told <- at
		})
		c.AwaitWorkers(10 * time.Second)
		returned, at := time.Now(), <-told
		if returned.Before(at) {
			t.Fatalf("AwaitWorkers returned %v before %s was told 410", at.Sub(returned), worker)
		}
		lags[i] = returned.Sub(at)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if lag := lags[len(lags)/2]; lag > 10*time.Millisecond {
		t.Errorf("AwaitWorkers returned a median %v after the last 410 (all: %v), want it woken by the 410", lag, lags)
	}

	// "ghost" posts once more and never asks for a lease: AwaitWorkers
	// gives up on it after LeaseTTL, far short of its grace.
	latePost("ghost")
	start := time.Now()
	c.AwaitWorkers(10 * time.Second)
	if took := time.Since(start); took < ttl/2 || took > ttl+2*time.Second {
		t.Errorf("AwaitWorkers on a silent worker took %v, want about LeaseTTL (%v)", took, ttl)
	}
}
