package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is the reference model's record of one pending event.
type refEvent struct {
	at      Time
	seq     uint64
	id      int
	dead    bool
	closure bool   // fn-carrying: Clone must refuse while it is queued
	timer   *Timer // nil for messages
}

func refBefore(a, b refEvent) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// queueDriver drives an engine through schedules of every kind (messages,
// keyed and closure timers, periodic series, reserved seqs spent through
// AtSeq, pasts clamped to now), Timer.Stop, one-event dispatches and
// clones, all chosen by draw. It keeps a reference list of the pending
// events and checks every dispatch, every clone and the final drain
// against the reference sorted by (at, seq).
type queueDriver struct {
	t        testing.TB
	e        *Engine
	node     NodeID
	draw     func(n int) int // uniform in [0, n)
	ref      []refEvent
	timers   []*Timer // every timer handed out, fired or not
	reserved []uint64
	ids      int
	fired    []int
	nested   []refEvent // scheduled from inside a handler, merged after the check
	inStep   bool
}

func newQueueDriver(t testing.TB, draw func(int) int) *queueDriver {
	d := &queueDriver{t: t, e: NewEngine(1), draw: draw}
	d.node = d.e.AddNode("q", 1).ID
	d.wire(d.e)
	return d
}

// wire registers the recording handlers on e's node (a clone starts with
// none).
func (d *queueDriver) wire(e *Engine) {
	n := e.Node(d.node)
	n.Handle("q", func(_ *Engine, _ NodeID, arg any) { d.fire(arg.(int)) })
	n.Register("q", ServiceFunc(func(_ *Engine, m Message) { d.fire(m.Body.(int)) }))
}

// fire records a dispatch, sometimes schedules more from inside it, and
// ends the step.
func (d *queueDriver) fire(id int) {
	d.fired = append(d.fired, id)
	for k := d.draw(3); k > 0; k-- {
		d.schedule(d.draw(5))
	}
	d.e.Stop()
}

var laneDelays = []Time{0, Millisecond, 3 * Millisecond, 5 * Millisecond, 7 * Millisecond}

func (d *queueDriver) delay() Time {
	if d.draw(4) == 0 {
		return Time(d.draw(20)) * Millisecond / 2
	}
	return laneDelays[d.draw(len(laneDelays))]
}

func (d *queueDriver) add(r refEvent) {
	if d.inStep {
		d.nested = append(d.nested, r)
	} else {
		d.ref = append(d.ref, r)
	}
	if r.timer != nil {
		d.timers = append(d.timers, r.timer)
	}
}

// schedule pushes one event of the given kind; kinds 0–3 keep the engine
// cloneable, 4–6 queue closures.
func (d *queueDriver) schedule(kind int) {
	e := d.e
	d.ids++
	id := d.ids
	var t *Timer
	closure := false
	switch kind {
	case 0:
		e.Send(d.node, d.node, "q", "k", id)
		d.add(refEvent{at: e.now + e.MessageLatency, seq: e.seq, id: id})
		return
	case 1:
		t = e.AfterKeyed(d.node, d.delay(), "q", id)
	case 2:
		t = e.EveryKeyed(d.node, Time(1+d.draw(3))*Millisecond, "q", id)
	case 3, 4:
		// A reserved seq spent at a time that may lie in the past.
		if len(d.reserved) == 0 {
			d.reserved = append(d.reserved, e.ReserveSeq())
		}
		i := d.draw(len(d.reserved))
		seq := d.reserved[i]
		d.reserved = append(d.reserved[:i], d.reserved[i+1:]...)
		at := e.now + d.delay() - Time(d.draw(3))*Millisecond
		if kind == 3 {
			ev := e.schedule(at, seq, d.node, nil)
			ev.key, ev.arg = "q", id
			t = &Timer{ev: ev, gen: ev.gen}
		} else {
			t, closure = e.AtSeq(at, seq, func() { d.fire(id) }), true
		}
	case 5:
		t, closure = e.After(d.delay(), func() { d.fire(id) }), true
	default:
		t, closure = e.Every(d.node, Time(1+d.draw(3))*Millisecond, func() { d.fire(id) }), true
	}
	d.add(refEvent{at: t.ev.at, seq: t.ev.seq, id: id, closure: closure, timer: t})
}

func (d *queueDriver) sortRef() {
	sort.Slice(d.ref, func(i, j int) bool { return refBefore(d.ref[i], d.ref[j]) })
}

// step dispatches one live event and checks it was the reference's
// (at, seq) minimum, with the dead events before it recycled.
func (d *queueDriver) step() {
	d.sortRef()
	d.fired = d.fired[:0]
	d.inStep = true
	d.e.stopped = false
	d.e.Run(0)
	d.inStep = false
	for len(d.ref) > 0 && d.ref[0].dead {
		d.ref = d.ref[1:]
	}
	if len(d.ref) == 0 {
		if len(d.fired) != 0 {
			d.t.Fatalf("dispatched %v from a queue holding no live event", d.fired)
		}
	} else {
		want := d.ref[0]
		if len(d.fired) != 1 || d.fired[0] != want.id || d.e.now != want.at {
			d.t.Fatalf("dispatched %v at %v, want event %d at %v (seq %d)", d.fired, d.e.now, want.id, want.at, want.seq)
		}
		d.ref = d.ref[1:]
		if t := want.timer; t != nil && t.ev.gen == t.gen && t.ev.period > 0 {
			// The series rescheduled the same event under a fresh seq.
			want.at, want.seq = t.ev.at, t.ev.seq
			d.ref = append(d.ref, want)
		}
	}
	d.ref = append(d.ref, d.nested...)
	d.nested = d.nested[:0]
	if got := d.e.Fingerprint().Queue; got != len(d.ref) {
		d.t.Fatalf("Fingerprint.Queue %d, reference holds %d", got, len(d.ref))
	}
}

// stop stops a random timer ever handed out; only a still-pending one may
// take effect.
func (d *queueDriver) stop() {
	if len(d.timers) == 0 {
		return
	}
	t := d.timers[d.draw(len(d.timers))]
	if t.ev != nil && t.ev.gen == t.gen {
		for i := range d.ref {
			if r := d.ref[i].timer; r != nil && r.ev == t.ev {
				d.ref[i].dead = true
			}
		}
	}
	t.Stop()
}

// drain pops every event of q and checks them against the reference,
// dead ones included.
func (d *queueDriver) drain(q *eventQueue, who string) {
	d.sortRef()
	for i, want := range d.ref {
		if q.n == 0 {
			d.t.Fatalf("%s: queue empty after %d of %d events", who, i, len(d.ref))
		}
		ev := q.pop()
		id, _ := ev.arg.(int)
		if ev.isMsg {
			id = ev.msg.Body.(int)
		}
		if ev.at != want.at || ev.seq != want.seq || ev.dead != want.dead || (ev.fn == nil && id != want.id) {
			d.t.Fatalf("%s: pop %d is (%v, %d, dead %v, id %d), want (%v, %d, dead %v, id %d)",
				who, i, ev.at, ev.seq, ev.dead, id, want.at, want.seq, want.dead, want.id)
		}
	}
	if q.n != 0 || len(q.lanes) != 0 {
		d.t.Fatalf("%s: %d events in %d lanes left after the reference drained", who, q.n, len(q.lanes))
	}
}

// clone checks that Clone refuses exactly while a closure is queued, that
// a clone pops the reference order, and sometimes carries on driving a
// second clone in place of the source.
func (d *queueDriver) clone() {
	closure := false
	for _, r := range d.ref {
		closure = closure || r.closure
	}
	c, _, err := d.e.Clone()
	if (err != nil) != closure {
		d.t.Fatalf("Clone error %v with a closure queued: %v", err, closure)
	}
	if err != nil {
		return
	}
	if c.Fingerprint() != d.e.Fingerprint() {
		d.t.Fatalf("clone fingerprint %+v, source %+v", c.Fingerprint(), d.e.Fingerprint())
	}
	d.drain(&c.q, "clone")
	if d.draw(2) == 0 {
		return
	}
	c, remap, _ := d.e.Clone()
	d.wire(c)
	d.e = c
	for i := range d.ref {
		d.ref[i].timer = remap.Timer(d.ref[i].timer)
	}
	for i, t := range d.timers {
		d.timers[i] = remap.Timer(t)
	}
}

// run performs ops operations, or stops early once draw is exhausted
// (done reports it), then drains the source against the reference.
func (d *queueDriver) run(ops int, done func() bool) {
	for i := 0; i < ops && !done(); i++ {
		switch op := d.draw(16); {
		case op < 7:
			d.schedule(d.draw(7))
		case op < 8:
			d.reserved = append(d.reserved, d.e.ReserveSeq())
		case op < 10:
			d.stop()
		case op < 15:
			d.step()
		default:
			d.clone()
		}
	}
	d.drain(&d.e.q, "source")
}

// TestEventQueueMatchesSortedReference: over random interleavings of every
// scheduling path, Timer.Stop, dispatch and Clone, the engine and every
// clone pop exactly the (at, seq) order of a sorted reference.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newQueueDriver(t, rng.Intn)
		d.run(400, func() bool { return false })
	}
}

// FuzzEventQueue is TestEventQueueMatchesSortedReference with the choices
// read from the fuzz input.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 3, 0, 3, 4, 1, 10, 15, 1, 12, 3, 4, 2, 0, 15, 1, 14, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		d := newQueueDriver(t, draw)
		d.run(1000, func() bool { return len(data) == 0 })
	})
}

// TestEventQueueOutOfOrderPushes covers the lane paths no workload
// reaches: pushes that sort before their lane's tail.
func TestEventQueueOutOfOrderPushes(t *testing.T) {
	record := func(order *[]string, name string) func() {
		return func() { *order = append(*order, name) }
	}
	check := func(t *testing.T, e *Engine, order *[]string, want ...string) {
		t.Helper()
		e.Quiesce()
		if len(*order) != len(want) {
			t.Fatalf("order %v, want %v", *order, want)
		}
		for i := range want {
			if (*order)[i] != want[i] {
				t.Fatalf("order %v, want %v", *order, want)
			}
		}
	}

	t.Run("AtSeq into a non-empty lane at an equal at", func(t *testing.T) {
		e := NewEngine(1)
		var order []string
		e.After(5*Millisecond, record(&order, "a"))
		seq := e.ReserveSeq()
		e.After(5*Millisecond, record(&order, "b"))
		e.AtSeq(5*Millisecond, seq, record(&order, "reserved"))
		check(t, e, &order, "a", "reserved", "b")
	})

	t.Run("clamped past at", func(t *testing.T) {
		e := NewEngine(1)
		var order []string
		seq := e.ReserveSeq()
		e.After(10*Millisecond, func() {
			e.After(0, record(&order, "p"))
			e.After(0, record(&order, "q"))
			e.AtSeq(3*Millisecond, seq, func() {
				if e.Now() != 10*Millisecond {
					t.Errorf("past event ran at %v, want it clamped to 10ms", e.Now())
				}
				order = append(order, "past")
			})
		})
		check(t, e, &order, "past", "p", "q")
	})

	t.Run("new lane head sorts before another lane", func(t *testing.T) {
		e := NewEngine(1)
		var order []string
		seq := e.ReserveSeq()
		e.After(5*Millisecond, record(&order, "five"))
		e.After(2*Millisecond, func() {
			// Now 2ms: the 3 ms lane's head (5ms, later seq) trails the
			// 5 ms lane's; the reserved seq must overtake both.
			e.After(3*Millisecond, record(&order, "three"))
			e.AtSeq(5*Millisecond, seq, record(&order, "reserved"))
		})
		check(t, e, &order, "reserved", "five", "three")
	})
}
