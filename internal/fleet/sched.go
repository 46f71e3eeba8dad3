// Shard scheduling with triage feedback. The coordinator's job space is
// static (plans are deterministic), but the order shards are handed out
// in is free — so the scheduler spends that freedom steering budget
// toward crash points that look productive and away from known noise:
//
//   - a result whose signature opens a NEW cluster (never seen in this
//     run or in the seeded triage index) marks its static point hot:
//     pending shards containing jobs on the same point are boosted —
//     neighbouring scenarios of a fresh bug are the cheapest place to
//     find its siblings;
//   - a result whose signature is suppressed (the operator's
//     known-issues list) marks its point cold and demotes shards that
//     only revisit it.
//
// Scheduling order never changes WHAT runs or what the results are —
// every job still executes and results assemble by job index — so the
// byte-identical determinism guarantee is untouched; only time-to-first
// -new-bug improves.
package fleet

import (
	"time"

	"repro/internal/triage"
)

// scheduler ranks shards. All methods are called under the
// coordinator's lock.
type scheduler struct {
	// ix dedups observed failing results into clusters; seeding it from
	// an existing store means "new" is judged against everything already
	// triaged, not only against this run.
	ix *triage.Index
	// seen is the set of signature keys already counted, so one cluster
	// boosts its point once, not once per reproduction.
	seen map[string]bool
	// suppress is the operator's known-issues list (signature keys).
	suppress map[string]bool
	// hot/cold score static point ids.
	hot  map[string]int
	cold map[string]int
}

func newScheduler(seed *triage.Index, suppress map[string]bool) *scheduler {
	s := &scheduler{
		ix:       triage.NewIndex(),
		seen:     make(map[string]bool),
		suppress: suppress,
		hot:      make(map[string]int),
		cold:     make(map[string]int),
	}
	if seed != nil {
		for _, rec := range seed.Records() {
			s.seen[rec.Sig] = true
			s.ix.Add(rec)
		}
	}
	return s
}

// observe folds one completed result into the feedback state.
func (s *scheduler) observe(res Result) {
	if !res.Failing || res.Sig == "" {
		return
	}
	if s.suppress[res.Sig] {
		s.cold[res.Job.Point]++
		return
	}
	if s.seen[res.Sig] {
		return
	}
	s.seen[res.Sig] = true
	s.ix.Add(triage.FromRunRecord(res.RunRecord()))
	s.hot[res.Job.Point]++
}

// score ranks one shard by the points its remaining jobs sit on.
func (s *scheduler) score(sh *shard) int {
	score := 0
	points := map[string]bool{}
	for g := range sh.remaining {
		points[sh.jobs[g].Point] = true
	}
	for p := range points {
		if s.hot[p] > 0 {
			score += 2
		}
		if s.cold[p] > 0 {
			score -= 2
		}
	}
	return score
}

// pick selects the next shard for a lease: the highest-scoring
// unleased shard with work remaining; ties break toward the lowest
// shard id so the zero-feedback order is the planning order.
func (s *scheduler) pick(shards []*shard) *shard {
	var best *shard
	bestScore := 0
	for _, sh := range shards {
		if len(sh.remaining) == 0 || len(sh.leases) > 0 {
			continue
		}
		sc := s.score(sh)
		if best == nil || sc > bestScore {
			best, bestScore = sh, sc
		}
	}
	return best
}

// steal selects a shard for an idle worker when every shard with work
// is already leased: the leased shard with the most remaining jobs (at
// least two — stealing a single job only duplicates it), score-adjusted
// like pick, among the overdue ones. A healthy worker renews its lease
// every renewAfter(ttl), well before it becomes overdue, so an overdue
// lease marks a straggler, while co-leasing a younger one would only
// run the shard a second time behind an owner whose progress the thief
// cannot see. The thief co-leases the shard's remainder; whichever
// worker posts a job's result first wins, the duplicate is dropped, and
// because execution is deterministic the duplicates are identical.
func (s *scheduler) steal(shards []*shard, now time.Time, ttl time.Duration) *shard {
	var best *shard
	bestKey := 0
	for _, sh := range shards {
		if len(sh.remaining) < 2 || !overdue(sh, now, ttl) {
			continue
		}
		key := len(sh.remaining) + 4*s.score(sh)
		if best == nil || key > bestKey {
			best, bestKey = sh, key
		}
	}
	return best
}

// renewAfter is how long a worker runs a leased shard before posting
// the results it has so far, which renews the lease: a third of the
// TTL, so the lease is renewed before it turns overdue at half the TTL.
func renewAfter(ttl time.Duration) time.Duration { return ttl / 3 }

// overdue reports whether sh is leased and every lease on it has less
// than half of ttl left.
func overdue(sh *shard, now time.Time, ttl time.Duration) bool {
	for _, l := range sh.leases {
		if l.expires.Sub(now) >= ttl/2 {
			return false
		}
	}
	return len(sh.leases) > 0
}
