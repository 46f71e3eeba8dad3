package sim

import (
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500us"},
		{2 * Millisecond, "2.000ms"},
		{1500 * Millisecond, "1.500s"},
		{2 * Hour, "2.00h"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNodeIDHost(t *testing.T) {
	if got := NodeID("node1:42349").Host(); got != "node1" {
		t.Errorf("Host() = %q, want node1", got)
	}
	if got := NodeID("bare").Host(); got != "bare" {
		t.Errorf("Host() = %q, want bare", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(2*Second, func() { order = append(order, 2) })
	e.After(1*Second, func() { order = append(order, 1) })
	e.After(1*Second, func() { order = append(order, 11) }) // same time: FIFO by seq? No: seq order after the first
	e.After(3*Second, func() { order = append(order, 3) })
	e.Quiesce()
	want := []int{2, 1, 11, 3}
	_ = want
	// Events at the same time fire in scheduling order; overall order is
	// by time then sequence.
	expect := []int{1, 11, 2, 3}
	if len(order) != len(expect) {
		t.Fatalf("got %v", order)
	}
	for i := range expect {
		if order[i] != expect[i] {
			t.Fatalf("order = %v, want %v", order, expect)
		}
	}
	if e.Now() != 3*Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(Second, func() { fired = true })
	tm.Stop()
	e.Quiesce()
	if fired {
		t.Error("stopped timer fired")
	}
	var nilTimer *Timer
	nilTimer.Stop() // must not panic
}

func TestTimerStopAfterRecycle(t *testing.T) {
	// Events are recycled through a freelist; a Timer held past its
	// event's lifetime must become inert, not cancel whichever later
	// schedule happens to reuse the same event.
	e := NewEngine(1)
	var stale *Timer
	fired := false
	stale = e.After(Second, func() {
		// The event backing `stale` is recycled as soon as this callback
		// is dispatched; the very next schedule reuses it.
		e.After(Second, func() { fired = true })
		stale.Stop()
	})
	e.Quiesce()
	if !fired {
		t.Error("stale Timer.Stop cancelled a recycled event")
	}
}

func TestEveryTimerStopsAcrossRecycles(t *testing.T) {
	// Every reuses its Timer across ticks, rebinding it to each fresh
	// event+generation; Stop after several ticks must still cancel it.
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	ticks := 0
	tm := e.Every(n.ID, Second, func() { ticks++ })
	e.After(3*Second+Second/2, func() { tm.Stop() })
	e.After(10*Second, func() { e.Stop() })
	e.Run(0)
	if ticks != 3 {
		t.Errorf("periodic timer ticked %d times after Stop, want 3", ticks)
	}
}

func TestSendAndServices(t *testing.T) {
	e := NewEngine(1)
	a := e.AddNode("a", 1000)
	b := e.AddNode("b", 2000)
	var got []string
	b.Register("echo", ServiceFunc(func(e *Engine, m Message) {
		got = append(got, m.Kind)
		if m.Kind == "ping" {
			e.Send(m.To, m.From, "reply", "pong", nil)
		}
	}))
	a.Register("reply", ServiceFunc(func(e *Engine, m Message) {
		got = append(got, m.Kind)
	}))
	e.Send(a.ID, b.ID, "echo", "ping", nil)
	e.Quiesce()
	if len(got) != 2 || got[0] != "ping" || got[1] != "pong" {
		t.Fatalf("got %v, want [ping pong]", got)
	}
}

func TestSendToDeadNodeDropped(t *testing.T) {
	e := NewEngine(1)
	a := e.AddNode("a", 1)
	b := e.AddNode("b", 2)
	delivered := false
	b.Register("svc", ServiceFunc(func(e *Engine, m Message) { delivered = true }))
	e.Crash(b.ID)
	e.Send(a.ID, b.ID, "svc", "x", nil)
	e.Quiesce()
	if delivered {
		t.Error("message delivered to crashed node")
	}
}

func TestCrashDropsNodeTimers(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	fired := 0
	e.AfterOn(n.ID, 2*Second, func() { fired++ })
	e.After(Second, func() { e.Crash(n.ID) })
	e.Quiesce()
	if fired != 0 {
		t.Error("node timer fired after crash")
	}
}

func TestEngineTimersSurviveCrash(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	fired := 0
	e.After(2*Second, func() { fired++ })
	e.After(Second, func() { e.Crash(n.ID) })
	e.Quiesce()
	if fired != 1 {
		t.Error("engine timer lost on node crash")
	}
}

func TestShutdownRunsHooksSynchronously(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	var seq []string
	n.OnShutdown(func(e *Engine) { seq = append(seq, "hook") })
	n.OnDeath(func(e *Engine, graceful bool) {
		if !graceful {
			t.Error("death hook reported crash for shutdown")
		}
		seq = append(seq, "death")
	})
	e.Shutdown(n.ID)
	seq = append(seq, "after")
	if len(seq) != 3 || seq[0] != "hook" || seq[1] != "death" || seq[2] != "after" {
		t.Fatalf("seq = %v", seq)
	}
	if n.Alive() {
		t.Error("node alive after shutdown")
	}
}

func TestCrashSkipsShutdownHooks(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	ran := false
	n.OnShutdown(func(e *Engine) { ran = true })
	graceful := true
	n.OnDeath(func(e *Engine, g bool) { graceful = g })
	e.Crash(n.ID)
	if ran {
		t.Error("shutdown hook ran on crash")
	}
	if graceful {
		t.Error("death hook reported graceful for crash")
	}
}

func TestDoubleFaultIgnored(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	e.Crash(n.ID)
	e.Crash(n.ID)
	e.Shutdown(n.ID)
	if len(e.Faults()) != 1 {
		t.Errorf("faults = %v, want exactly 1", e.Faults())
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	count := 0
	e.Every(n.ID, Second, func() { count++ })
	e.After(3500*Millisecond, func() { e.Stop() })
	e.Run(0)
	if count != 3 {
		t.Errorf("ticks = %d, want 3", count)
	}
}

func TestEveryStopsOnDeath(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	count := 0
	e.Every(n.ID, Second, func() { count++ })
	e.After(2500*Millisecond, func() { e.Crash(n.ID) })
	e.Quiesce()
	if count != 2 {
		t.Errorf("ticks = %d, want 2", count)
	}
}

func TestRunDeadline(t *testing.T) {
	e := NewEngine(1)
	e.After(10*Second, func() {})
	r := e.Run(5 * Second)
	if !r.Deadline {
		t.Error("expected deadline stop")
	}
	if e.Now() != 5*Second {
		t.Errorf("Now() = %v, want 5s", e.Now())
	}
}

func TestMaxStepsExhaustion(t *testing.T) {
	e := NewEngine(1)
	e.MaxSteps = 100
	var loop func()
	loop = func() { e.After(Millisecond, loop) }
	loop()
	r := e.Run(0)
	if !r.Exhausted {
		t.Error("expected exhaustion")
	}
	if r.Steps != 100 {
		t.Errorf("steps = %d, want 100", r.Steps)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []FaultRecord {
		e := NewEngine(42)
		for i := 0; i < 5; i++ {
			e.AddNode("host", 1000+i)
		}
		ids := e.AliveNodes()
		for i := 0; i < 3; i++ {
			d := Time(e.Rand().Intn(1000)) * Millisecond
			victim := ids[e.Rand().Intn(len(ids))]
			e.After(d, func() { e.Crash(victim) })
		}
		e.Quiesce()
		return e.Faults()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("fault counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestThrowAndAbort(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	e.Throw(n.ID, "IOException@read", "disk error", true)
	e.Abort(n.ID, "NullPointerException@sched", "nil node")
	e.Throw(n.ID, "IOException@read", "disk error again", true) // repeat
	exs := e.Exceptions()
	if len(exs) != 2 {
		t.Fatalf("exceptions = %d, want 2", len(exs))
	}
	if !exs[0].Handled || exs[1].Handled {
		t.Error("handled flags wrong")
	}
	if exs[0].Message != "disk error" {
		t.Errorf("kept message %q, want the first occurrence's", exs[0].Message)
	}
	if n.Alive() {
		t.Error("node alive after abort")
	}
	if len(e.Faults()) != 0 {
		t.Error("abort must not count as an injected fault")
	}
}

func TestAliveNodesAndSorted(t *testing.T) {
	e := NewEngine(1)
	e.AddNode("b", 2)
	e.AddNode("a", 1)
	e.Crash(NodeID("b:2"))
	alive := e.AliveNodes()
	if len(alive) != 1 || alive[0] != "a:1" {
		t.Errorf("alive = %v", alive)
	}
	ids := e.SortedNodeIDs()
	if len(ids) != 2 || ids[0] != "a:1" || ids[1] != "b:2" {
		t.Errorf("sorted = %v", ids)
	}
}

func TestHeartbeatLiveness(t *testing.T) {
	e := NewEngine(1)
	master := e.AddNode("master", 1)
	worker := e.AddNode("worker", 2)
	cfg := HeartbeatConfig{Period: Second, Timeout: 3 * Second, Service: "tracker", Kind: "heartbeat"}
	var lost []NodeID
	lm := NewLivenessMonitor(e, master.ID, cfg, func(id NodeID) { lost = append(lost, id) })
	lm.Track(worker.ID)
	master.Register("tracker", ServiceFunc(func(e *Engine, m Message) { lm.Beat(m.From) }))
	StartHeartbeats(e, worker.ID, master.ID, cfg)
	// Worker healthy for 10s: no LOST.
	e.After(10*Second, func() {
		if len(lost) != 0 {
			t.Errorf("premature LOST: %v", lost)
		}
		e.Crash(worker.ID)
	})
	e.After(20*Second, func() { e.Stop() })
	e.Run(0)
	if len(lost) != 1 || lost[0] != worker.ID {
		t.Fatalf("lost = %v, want [worker:2]", lost)
	}
	if !lm.lost[worker.ID] || lm.Tracking(worker.ID) {
		t.Error("monitor state inconsistent after LOST")
	}
}

func TestLivenessForget(t *testing.T) {
	e := NewEngine(1)
	master := e.AddNode("m", 1)
	w := e.AddNode("w", 2)
	var lost []NodeID
	lm := NewLivenessMonitor(e, master.ID, DefaultHeartbeat, func(id NodeID) { lost = append(lost, id) })
	lm.Track(w.ID)
	lm.Forget(w.ID)
	e.After(20*Second, func() { e.Stop() })
	e.Run(0)
	if len(lost) != 0 {
		t.Errorf("forgotten worker reported LOST: %v", lost)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate node")
		}
	}()
	e := NewEngine(1)
	e.AddNode("x", 1)
	e.AddNode("x", 1)
}

// TestDroppedKeyedTimerAllocatesNothing: AfterKeyed is an inlinable
// wrapper, so a caller that drops the Timer keeps it on the stack. With
// the freelist and the delay lane warm, scheduling costs no allocation.
func TestDroppedKeyedTimerAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	n := e.AddNode("n", 1)
	n.Handle("k", func(*Engine, NodeID, any) {})
	for i := 0; i < 4*eventBlock; i++ {
		e.AfterKeyed(n.ID, Millisecond, "k", nil)
	}
	e.Run(Second)
	e.AfterKeyed(n.ID, Millisecond, "k", nil) // opens the lane
	if allocs := testing.AllocsPerRun(100, func() { e.AfterKeyed(n.ID, Millisecond, "k", nil) }); allocs != 0 {
		t.Errorf("a dropped AfterKeyed handle costs %v allocations, want 0", allocs)
	}
}
