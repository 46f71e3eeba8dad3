package sim

import (
	"fmt"
	"math/rand"
)

// Engine cloning: the O(state) half of the snapshot machinery.
//
// A clone is a deep copy of everything the engine itself owns — clock,
// sequence counter, RNG stream position, node slab, fault/exception logs
// and the pending event queue — taken at an event boundary. It is only
// possible because the queue holds no code: messages are data
// ({Service, Kind, Body} dispatched through registered services) and
// timers are keyed descriptors ((key, arg) dispatched through per-node
// handler registries or engine builtins). A pending closure timer
// (After/AfterOn/Every) cannot be copied, so Clone refuses if one is
// queued; systems that want to be forked this way schedule exclusively
// through AfterKeyed/EveryKeyed once running (closures during Start(),
// before any clone is taken, are fine if they fire before the boundary).
//
// What a clone deliberately does not copy:
//
//   - Service and keyed-handler registrations, shutdown/death hooks. These
//     close over the system model, so the system's CloneRun re-registers
//     them against its own copied state (see cluster.Cloneable).
//   - The liveness monitor registry. LivenessMonitor.CloneTo rebuilds it,
//     because onLost also closes over the model.
//   - OnStep. The driver (cluster.DriveResume) installs its own.
//
// Clone is strictly read-only on the source engine — it does not even use
// the node-lookup cache — so an immutable template engine can be cloned
// concurrently by campaign workers.

// TimerRemap translates Timer handles taken against a source engine into
// handles against its clone. Only pending (still-queued) events are in the
// map; a Timer whose event already fired or was recycled remaps to an
// inert handle, matching what Stop would have done on the source.
type TimerRemap struct {
	events map[*event]*event
}

// Timer returns the clone-side handle for t. Safe on nil t (returns nil).
func (r *TimerRemap) Timer(t *Timer) *Timer {
	if t == nil {
		return nil
	}
	if t.ev != nil && t.ev.gen == t.gen {
		if ev2, ok := r.events[t.ev]; ok {
			return &Timer{ev: ev2, gen: ev2.gen}
		}
	}
	// Fired, recycled or foreign: an inert handle whose Stop is a no-op.
	return &Timer{}
}

// Clone deep-copies the engine's dynamic state into a fresh engine that
// resumes from exactly this instant: same virtual clock, same sequence
// numbers, same RNG stream position, same pending queue. It fails if any
// pending event carries a closure (see the package comment above). The
// returned TimerRemap translates outstanding Timer handles; in practice
// only LivenessMonitor.CloneTo needs it, since system models hold no raw
// Timers.
//
// The clone's fingerprint equals the source's: dead (cancelled) events
// are copied too, so the resumed run recycles them at the same dispatch
// ordinals and the Recycled counter stays in lockstep with a replay.
func (e *Engine) Clone() (*Engine, *TimerRemap, error) {
	for _, l := range e.q.lanes {
		for ev := l.head; ev != nil; ev = ev.next {
			if ev.fn != nil {
				return nil, nil, fmt.Errorf("sim: cannot clone engine: pending closure timer on %q at %v (schedule it with AfterKeyed/EveryKeyed)", ev.node, ev.at)
			}
		}
	}
	e2 := &Engine{
		now:            e.now,
		seq:            e.seq,
		handled:        e.handled,
		recycled:       e.recycled,
		part:           e.part.clone(),
		MaxSteps:       e.MaxSteps,
		MessageLatency: e.MessageLatency,
	}
	// RNG: same replay buffer (append-only, shared across engines on one
	// seed), cursor copied so the clone draws the same stream suffix.
	src2 := &streamSource{buf: e.src.buf, pos: e.src.pos}
	e2.rng, e2.src = rand.New(src2), src2
	if len(e.faults) > 0 {
		e2.faults = append([]FaultRecord(nil), e.faults...)
	}
	// Exceptions: the clone shares the source's list, capped at its
	// length, so its first new pair copies the list, and the source's
	// appends land past the clone's view.
	e2.exceptions = e.Exceptions()
	// Nodes: identity, liveness and incarnations; registrations stay empty
	// for the system's CloneRun to re-wire.
	if len(e.nodes) > 0 {
		e2.nodeSlab = make([]Node, 0, nodeSlabSize)
		e2.nodes = make([]*Node, 0, len(e.nodes))
		for _, n := range e.nodes {
			var n2 *Node
			if len(e2.nodeSlab) < cap(e2.nodeSlab) {
				e2.nodeSlab = e2.nodeSlab[:len(e2.nodeSlab)+1]
				n2 = &e2.nodeSlab[len(e2.nodeSlab)-1]
			} else {
				n2 = new(Node)
			}
			*n2 = Node{
				ID:          n.ID,
				Hostname:    n.Hostname,
				Port:        n.Port,
				alive:       n.alive,
				incarnation: n.incarnation,
			}
			e2.nodes = append(e2.nodes, n2)
		}
	}
	// Pending queue: value-copy every event, dead ones included (they must
	// be popped and recycled at the same ordinals as in a replay), each
	// delay lane in order into one contiguous block (see queue.go). The
	// copied lanes keep their heap positions and (at, seq) keys, so the
	// clone pops exactly the source's order. Generations restart from the
	// copies' zero values; the Recycled counter, not the per-event
	// generation, is what Fingerprint fences, and it was copied.
	remap := &TimerRemap{events: make(map[*event]*event, e.q.n)}
	e2.q = e.q.clone(remap.events)
	return e2, remap, nil
}
