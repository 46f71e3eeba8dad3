package sim

import (
	"strings"
	"testing"
)

// keyedChatter is chatterCluster rebuilt on the keyed-timer API: the
// same three-node ping-pong, but every mid-run timer is a (key, arg)
// descriptor, so the engine is cloneable at any event boundary.
func keyedChatter(seed int64) (*Engine, []NodeID) {
	e := NewEngine(seed)
	ids := make([]NodeID, 3)
	for i, host := range []string{"node0", "node1", "node2"} {
		n := e.AddNode(host, 7000+i)
		ids[i] = n.ID
		n.Register("echo", ServiceFunc(func(e *Engine, m Message) {
			if e.rng.Intn(4) > 0 {
				e.Send(m.To, m.From, "echo", "pong", nil)
			}
		}))
	}
	for i, id := range ids {
		peer := ids[(i+1)%len(ids)]
		e.Node(id).Handle("ping", func(e *Engine, node NodeID, arg any) {
			e.Send(node, arg.(NodeID), "echo", "ping", nil)
		})
		e.EveryKeyed(id, 3*Millisecond, "ping", peer)
	}
	return e, ids
}

// wireKeyedChatter re-registers keyedChatter's services and handlers on
// a cloned engine — the system-model half of the Cloneable contract,
// inlined for a test with no model state beyond the topology.
func wireKeyedChatter(e *Engine, ids []NodeID) {
	for _, id := range ids {
		n := e.Node(id)
		n.Register("echo", ServiceFunc(func(e *Engine, m Message) {
			if e.rng.Intn(4) > 0 {
				e.Send(m.To, m.From, "echo", "pong", nil)
			}
		}))
		n.Handle("ping", func(e *Engine, node NodeID, arg any) {
			e.Send(node, arg.(NodeID), "echo", "ping", nil)
		})
	}
}

// runTo drives the engine to exactly n handled events.
func runTo(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	saved := e.MaxSteps
	e.MaxSteps = n
	if res := e.Run(Hour); !res.Exhausted {
		t.Fatalf("engine stopped at %d events, wanted to pause at %d", e.handled, n)
	}
	e.MaxSteps = saved
}

func TestKeyedTimerDispatch(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("host", 1)
	var got []string
	n.Handle("k", func(e *Engine, node NodeID, arg any) {
		got = append(got, arg.(string))
	})
	e.AfterKeyed(n.ID, Millisecond, "k", "a")
	e.AfterKeyed(n.ID, 2*Millisecond, "k", "b")
	e.Run(Second)
	if strings.Join(got, "") != "ab" {
		t.Errorf("keyed dispatch order = %q, want ab", strings.Join(got, ""))
	}
}

func TestEveryKeyedStopsOnDeath(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("host", 1)
	ticks := 0
	n.Handle("tick", func(e *Engine, node NodeID, arg any) { ticks++ })
	e.EveryKeyed(n.ID, Millisecond, "tick", nil)
	e.After(4500*Microsecond, func() { e.Crash(n.ID) })
	e.Run(20 * Millisecond)
	if ticks != 4 {
		t.Errorf("ticks = %d, want 4 (series dies with the node)", ticks)
	}
}

func TestKeyedTimerMissingHandlerPanics(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("host", 1)
	e.AfterKeyed(n.ID, Millisecond, "unregistered", nil)
	defer func() {
		if r := recover(); r == nil {
			t.Error("dispatch of an unregistered key did not panic")
		}
	}()
	e.Run(Second)
}

func TestAfterKeyedEmptyKeyPanics(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("host", 1)
	defer func() {
		if r := recover(); r == nil {
			t.Error("AfterKeyed with an empty key did not panic")
		}
	}()
	e.AfterKeyed(n.ID, Millisecond, "", nil)
}

// TestCloneRefusesPendingClosure: an engine with a queued After closure
// cannot be cloned — the error names the offending node so the system
// author can migrate the scheduling site.
func TestCloneRefusesPendingClosure(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("host", 1)
	e.AfterOn(n.ID, Millisecond, func() {})
	if _, _, err := e.Clone(); err == nil {
		t.Error("Clone accepted an engine with a pending closure timer")
	} else if !strings.Contains(err.Error(), "AfterKeyed") {
		t.Errorf("error %q does not point at the keyed API", err)
	}
}

// TestCloneResumesIdentically is the core O(state) property: pause a
// keyed workload mid-run, clone it, drive source and clone to the same
// horizon, and require identical fingerprints — same clock, same event
// count, same recycle count, same RNG draws, same node liveness.
func TestCloneResumesIdentically(t *testing.T) {
	e, ids := keyedChatter(42)
	runTo(t, e, 100)

	e2, _, err := e.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	wireKeyedChatter(e2, ids)
	if e.Fingerprint() != e2.Fingerprint() {
		t.Fatalf("clone fingerprint diverged at the boundary:\nsrc   %+v\nclone %+v", e.Fingerprint(), e2.Fingerprint())
	}

	runTo(t, e, 400)
	runTo(t, e2, 400)
	if e.Fingerprint() != e2.Fingerprint() {
		t.Errorf("fingerprints diverged after resume:\nsrc   %+v\nclone %+v", e.Fingerprint(), e2.Fingerprint())
	}
}

// TestCloneIsolation: faults injected into the clone must not leak into
// the source, and vice versa — the template stays reusable.
func TestCloneIsolation(t *testing.T) {
	e, ids := keyedChatter(7)
	runTo(t, e, 50)

	e2, _, err := e.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	wireKeyedChatter(e2, ids)
	e2.Crash(ids[0])
	if !e.Node(ids[0]).Alive() {
		t.Error("crashing a cloned node killed the source node")
	}
	if len(e.Faults()) != 0 {
		t.Errorf("source recorded %d faults after a clone-side crash", len(e.Faults()))
	}

	runTo(t, e, 200)
	e3, _, err := e.Clone()
	if err != nil {
		t.Fatalf("Clone after resuming the source: %v", err)
	}
	wireKeyedChatter(e3, ids)
	runTo(t, e3, 300)
	if !e3.Node(ids[0]).Alive() {
		t.Error("second clone inherited the first clone's crash")
	}
}

// TestCloneMatchesReplayAfterFault: forking at a boundary and injecting
// a crash must land the exact engine state a from-scratch replay with
// the same injection reaches — the equivalence the trigger layer's
// fingerprint fence assumes.
func TestCloneMatchesReplayAfterFault(t *testing.T) {
	const boundary, horizon = 120, 420

	// Replay leg: fresh run, crash at the boundary, drive to the horizon.
	r, rids := keyedChatter(99)
	runTo(t, r, boundary)
	r.Crash(rids[1])
	runTo(t, r, horizon)

	// Clone leg: same workload paused at the boundary, forked, same crash.
	s, sids := keyedChatter(99)
	runTo(t, s, boundary)
	c, _, err := s.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	wireKeyedChatter(c, sids)
	c.Crash(sids[1])
	runTo(t, c, horizon)

	if r.Fingerprint() != c.Fingerprint() {
		t.Errorf("clone+fault diverged from replay+fault:\nreplay %+v\nclone  %+v", r.Fingerprint(), c.Fingerprint())
	}
}

// TestTimerRemapStop: a Timer handle taken on the source maps to a live
// clone-side handle that still cancels its event; handles for fired
// events map to inert no-ops.
func TestTimerRemapStop(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("host", 1)
	fired := map[string]bool{}
	n.Handle("k", func(e *Engine, node NodeID, arg any) { fired[arg.(string)] = true })
	early := e.AfterKeyed(n.ID, Millisecond, "k", "early")
	late := e.AfterKeyed(n.ID, 10*Millisecond, "k", "late")
	runTo(t, e, 1) // "early" has fired, "late" is pending

	e2, remap, err := e.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	n2 := e2.Node(n.ID)
	fired2 := map[string]bool{}
	n2.Handle("k", func(e *Engine, node NodeID, arg any) { fired2[arg.(string)] = true })

	remap.Timer(early).Stop() // inert: must not disturb the clone
	remap.Timer(late).Stop()  // live: cancels the pending event
	remap.Timer(nil)          // nil-safety

	e2.Run(Second)
	if fired2["late"] {
		t.Error("remapped Stop did not cancel the pending clone-side timer")
	}
	e.Run(Second)
	if !fired["late"] {
		t.Error("stopping the clone-side handle cancelled the source timer")
	}
}

// TestLivenessMonitorCloneTo: a monitor carried across a clone keeps
// detecting lost workers, with the fresh onLost firing against the
// clone and the source monitor untouched.
func TestLivenessMonitorCloneTo(t *testing.T) {
	build := func() (*Engine, NodeID, NodeID) {
		e := NewEngine(5)
		m := e.AddNode("master", 1)
		w := e.AddNode("worker", 2)
		return e, m.ID, w.ID
	}
	cfg := HeartbeatConfig{Period: 10 * Millisecond, Timeout: 35 * Millisecond, Service: "hb", Kind: "beat"}

	e, master, worker := build()
	var srcLost []NodeID
	lm := NewLivenessMonitor(e, master, cfg, func(id NodeID) { srcLost = append(srcLost, id) })
	lm.Track(worker)
	StartHeartbeats(e, worker, master, cfg)
	runTo(t, e, 8)

	e2, remap, err := e.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	var cloneLost []NodeID
	lm2 := lm.CloneTo(e2, remap, func(id NodeID) { cloneLost = append(cloneLost, id) })
	if !lm2.Tracking(worker) {
		t.Fatal("cloned monitor lost its tracked worker")
	}

	e2.Crash(worker)
	e2.MaxSteps = 0
	e2.Run(200 * Millisecond)
	if len(cloneLost) != 1 || cloneLost[0] != worker {
		t.Errorf("cloned monitor lost-set = %v, want [%v]", cloneLost, worker)
	}
	if len(srcLost) != 0 {
		t.Errorf("source onLost fired %d times from clone-side events", len(srcLost))
	}
}

// TestReservedSeqKeepsOrderAtEqualTimes: an event scheduled with AtSeq
// under a seq reserved before others takes its reserved place among
// events at the same instant, on the engine itself and on a clone taken
// after the reservation, and the reservation counts once in Seq.
func TestReservedSeqKeepsOrderAtEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var order []string
	seq := e.ReserveSeq()
	e.After(5, func() { order = append(order, "later") })
	e.AtSeq(5, seq, func() { order = append(order, "reserved") })
	e.Quiesce()
	if len(order) != 2 || order[0] != "reserved" || e.Fingerprint().Seq != 2 {
		t.Fatalf("order %v, Seq %d: want the reserved event first and Seq 2", order, e.Fingerprint().Seq)
	}

	// A whole run schedules its fault at 30ms right after construction;
	// a fork reserves that seq instead, clones at 20ms and schedules the
	// fault in the clone. The pings at 30ms tie with it.
	const at = 30 * Millisecond
	whole, ids := keyedChatter(7)
	whole.After(at, func() { whole.Crash(ids[1]) })
	ref, _ := keyedChatter(7)
	seq = ref.ReserveSeq()
	runTo(t, ref, 20)
	if ref.Now() >= at {
		t.Fatalf("reference reached %v before the clone point", ref.Now())
	}
	fork, _, err := ref.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	wireKeyedChatter(fork, ids)
	fork.AtSeq(at, seq, func() { fork.Crash(ids[1]) })
	runTo(t, whole, 400)
	runTo(t, fork, 400)
	if whole.Fingerprint() != fork.Fingerprint() {
		t.Errorf("fork diverged from the whole run:\nwhole %+v\nfork  %+v", whole.Fingerprint(), fork.Fingerprint())
	}
}
