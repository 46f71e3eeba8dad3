package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/triage"
)

// mkShard builds a shard whose jobs all sit on the given static points,
// one job per point, with every job remaining.
func mkShard(id int, firstGlobal int, points ...string) *shard {
	sh := &shard{id: id, jobs: map[int]Job{}, remaining: map[int]bool{}}
	for i, p := range points {
		g := firstGlobal + i
		sh.jobs[g] = Job{System: "sys", Campaign: "test", Run: g, Seed: 11, Scale: 1, Point: p, Scenario: "pre-read"}
		sh.remaining[g] = true
	}
	return sh
}

func failingResult(point, sig string) Result {
	return Result{
		Job:     Job{System: "sys", Campaign: "test", Point: point, Scenario: "pre-read"},
		Outcome: "job-failure",
		Failing: true,
		Sig:     sig,
	}
}

func TestSchedulerPickPrefersHotPoints(t *testing.T) {
	s := newScheduler(nil, nil)
	shards := []*shard{
		mkShard(0, 0, "pA", "pB"),
		mkShard(1, 2, "pHot", "pC"),
	}
	// Zero feedback: planning order (lowest id) wins.
	if got := s.pick(shards); got != shards[0] {
		t.Fatalf("zero-feedback pick = shard %d, want 0", got.id)
	}
	// A new cluster on pHot boosts shard 1 past shard 0.
	s.observe(failingResult("pHot", "sig-new"))
	if got := s.pick(shards); got != shards[1] {
		t.Fatalf("post-feedback pick = shard %d, want 1", got.id)
	}
	// The same signature again is not a second boost (the cluster is
	// already counted) — and a different point's fresh cluster balances
	// the score back to planning order.
	s.observe(failingResult("pHot", "sig-new"))
	s.observe(failingResult("pA", "sig-other"))
	if got := s.pick(shards); got != shards[0] {
		t.Fatalf("balanced pick = shard %d, want 0", got.id)
	}
}

func TestSchedulerSuppressedClustersDemote(t *testing.T) {
	s := newScheduler(nil, map[string]bool{"sig-known": true})
	shards := []*shard{
		mkShard(0, 0, "pNoise", "pNoise2"),
		mkShard(1, 2, "pD", "pE"),
	}
	s.observe(failingResult("pNoise", "sig-known"))
	if got := s.pick(shards); got != shards[1] {
		t.Fatalf("pick = shard %d, want 1 (shard 0 only revisits a suppressed cluster)", got.id)
	}
	// Suppressed reproductions never open clusters in the feedback index.
	if s.seen["sig-known"] {
		t.Error("suppressed signature entered the seen set")
	}
}

func TestSchedulerSeedIndexMakesKnownClustersOld(t *testing.T) {
	seedIx := triage.NewIndex()
	rec := triage.FromRunRecord(failingResult("pOld", "x").RunRecord())
	seedIx.Add(rec)
	s := newScheduler(seedIx, nil)
	// The seeded signature is not "new": observing it again must not
	// mark its point hot.
	s.observe(Result{Job: Job{Point: "pOld"}, Failing: true, Sig: rec.Sig})
	if len(s.hot) != 0 {
		t.Fatalf("seeded cluster marked a point hot: %v", s.hot)
	}
}

func TestSchedulerPickSkipsLeasedAndEmpty(t *testing.T) {
	s := newScheduler(nil, nil)
	leased := mkShard(0, 0, "pA", "pB")
	leased.leases = append(leased.leases, &lease{id: 1})
	empty := mkShard(1, 2)
	open := mkShard(2, 2, "pC")
	if got := s.pick([]*shard{leased, empty, open}); got != open {
		t.Fatalf("pick chose shard %d, want the unleased non-empty shard 2", got.id)
	}
	if got := s.pick([]*shard{leased, empty}); got != nil {
		t.Fatalf("pick = shard %d, want nil when nothing is leasable", got.id)
	}
}

func TestSchedulerStealNeedsTwoRemaining(t *testing.T) {
	s := newScheduler(nil, nil)
	one := mkShard(0, 0, "pA")
	one.leases = append(one.leases, &lease{id: 1})
	if got := s.steal([]*shard{one}, time.Now(), time.Minute); got != nil {
		t.Fatalf("stole a single-job shard %d; stealing it only duplicates work", got.id)
	}
	two := mkShard(1, 1, "pB", "pC")
	two.leases = append(two.leases, &lease{id: 2})
	unleased := mkShard(2, 3, "pD", "pE")
	if got := s.steal([]*shard{one, two, unleased}, time.Now(), time.Minute); got != two {
		t.Fatalf("steal chose %v, want the leased two-job shard", got)
	}
}

func TestSchedulerStealPrefersBiggestBacklog(t *testing.T) {
	s := newScheduler(nil, nil)
	var shards []*shard
	for i := 0; i < 3; i++ {
		sh := mkShard(i, i*10, points(i+2)...)
		sh.leases = append(sh.leases, &lease{id: int64(i + 1)})
		shards = append(shards, sh)
	}
	if got := s.steal(shards, time.Now(), time.Minute); got != shards[2] {
		t.Fatalf("steal chose shard %d, want 2 (largest remaining)", got.id)
	}
}

// TestSchedulerStealOnlyOverdue pins the overdue rule: a shard is
// stolen only when every lease on it has less than half the TTL left.
func TestSchedulerStealOnlyOverdue(t *testing.T) {
	s := newScheduler(nil, nil)
	now, ttl := time.Now(), time.Minute
	sh := mkShard(0, 0, "pA", "pB", "pC")
	sh.leases = append(sh.leases, &lease{id: 1, expires: now.Add(ttl / 2)})
	if got := s.steal([]*shard{sh}, now, ttl); got != nil {
		t.Fatalf("stole shard %d with half its TTL left", got.id)
	}
	sh.leases[0].expires = now.Add(ttl/2 - time.Millisecond)
	if got := s.steal([]*shard{sh}, now, ttl); got != sh {
		t.Fatalf("steal = %v, want the overdue shard", got)
	}
	sh.leases = append(sh.leases, &lease{id: 2, expires: now.Add(ttl)})
	if got := s.steal([]*shard{sh}, now, ttl); got != nil {
		t.Fatalf("stole shard %d beside a fresh co-lease", got.id)
	}
}

func points(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p%d", i)
	}
	return out
}
