package sim

import "hash/fnv"

// Fingerprint is a compact, value-typed digest of the engine's dynamic
// state at one instant of a run. Two deterministic executions of the same
// workload that have dispatched the same event prefix produce equal
// fingerprints; any divergence in scheduling, freelist recycling or node
// liveness shows up as an inequality.
//
// The fingerprint is the fence of the copy-on-write snapshot machinery
// (internal/trigger's SnapshotPlan): a snapshot taken during the
// reference pass records the fingerprint at its crash point, and a
// forked injection run — whether it replays the deterministic prefix or
// resumes from an Engine.Clone — verifies the recorded value at the same
// dispatch ordinal before injecting. The fingerprint is what makes both
// "replay the prefix" and "the clone is the prefix" checkable instead of
// assumed.
//
// Recycled is the cumulative count of freelist recycles. Every recycle
// bumps the pooled event's generation, so equal Recycled counts on the
// same seed imply identical generation numbers across the pool: the
// fingerprint fences the freelist as well as the clock. A snapshot is a
// plain value, so post-snapshot mutation of pooled events (reuse,
// generation bumps) cannot leak into a fingerprint captured earlier.
type Fingerprint struct {
	// Now is the virtual clock.
	Now Time
	// Seq is the total number of events ever scheduled.
	Seq uint64
	// Handled is the number of events dispatched.
	Handled uint64
	// Queue is the number of events currently pending.
	Queue int
	// Recycled counts freelist recycles (== generation bumps) so far.
	Recycled uint64
	// NodeSum digests node identity, liveness and incarnations.
	NodeSum uint64
	// Part digests the network-partition plane: the active cut's
	// membership, mode and delay, the held-message queue and the plane's
	// cumulative counters (see partition.go). It is 0 for an engine that
	// never opened a cut, so fingerprints recorded before partitions
	// existed compare unchanged.
	Part uint64
}

// Fingerprint captures the engine's current dynamic state. It is cheap —
// O(nodes) with no allocation beyond the hash state — so callers may take
// one per candidate crash point.
func (e *Engine) Fingerprint() Fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for _, n := range e.nodes {
		// Length-prefix the ID so adjacent writes cannot be reparsed: without
		// it, ("ab", alive...) followed by ("c", ...) hashes the same bytes
		// as ("a", ...) then ("bc", ...)-shaped splits for crafted IDs.
		buf[0] = byte(len(n.ID))
		buf[1] = byte(len(n.ID) >> 8)
		h.Write(buf[:2])
		h.Write([]byte(n.ID))
		alive := byte(0)
		if n.alive {
			alive = 1
		}
		buf[0] = alive
		buf[1] = byte(n.incarnation)
		buf[2] = byte(n.incarnation >> 8)
		buf[3] = byte(n.incarnation >> 16)
		buf[4] = byte(n.incarnation >> 24)
		h.Write(buf[:5])
	}
	return Fingerprint{
		Now:      e.now,
		Seq:      e.seq,
		Handled:  e.handled,
		Queue:    e.q.n,
		Recycled: e.recycled,
		NodeSum:  h.Sum64(),
		Part:     e.part.digest(),
	}
}

// Recycled returns the cumulative number of freelist recycles, the
// generation-fence component of Fingerprint, for tests and diagnostics.
func (e *Engine) Recycled() uint64 { return e.recycled }
