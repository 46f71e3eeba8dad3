package sim

// The engine's event queue: delay lanes, a calendar-queue variant (R.
// Brown, "Calendar queues", CACM 31(10), 1988).
//
// Every event is pushed some delay d = at − now ahead of the clock, and a
// run uses few distinct delays: each Send waits the message latency and
// each handler's timers reuse a handful of fixed periods. Events pushed
// with one delay arrive already in (at, seq) order — now never decreases,
// so neither does now + d, and a freshly drawn seq exceeds every earlier
// one. The queue therefore keeps one FIFO lane per distinct pending
// delay, linked through event.next, and the common push is one append
// that allocates nothing. A 4-ary min-heap orders the non-empty lanes by
// their heads' (at, seq), keyed inline so a sift compares without
// loading an event; it holds one entry per distinct pending delay (at
// most 8 in any benchmark workload), not one per pending event.
//
// A push that would break its lane's order — a seq reserved earlier and
// spent through AtSeq, or an at in the past clamped to now — is inserted
// at its sorted position instead, re-keying the lane when it becomes the
// head. Every pop thus returns the (at, seq) minimum of the pending
// events. (at, seq) is a total order, so this is the exact order any
// priority queue pops, and runs, fingerprints and clones do not depend on
// the queue's shape.

// lane is one FIFO of pending events pushed with the same delay, in
// (at, seq) order from head to tail. at and seq mirror the head's key.
type lane struct {
	at         Time
	seq        uint64
	delay      Time
	head, tail *event
}

func (l *lane) before(m *lane) bool {
	return l.at < m.at || l.at == m.at && l.seq < m.seq
}

// earlier reports whether a pops before b.
func earlier(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is the pending-event set: the non-empty lanes as a 4-ary
// min-heap on their heads, and the number of events they hold.
type eventQueue struct {
	lanes []lane
	n     int
}

// push enqueues ev, scheduled delay ahead of the clock.
func (q *eventQueue) push(ev *event, delay Time) {
	q.n++
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.delay != delay {
			continue
		}
		if earlier(l.tail, ev) {
			l.tail.next = ev
			l.tail = ev
		} else {
			q.insert(i, ev)
		}
		return
	}
	q.lanes = append(q.lanes, lane{at: ev.at, seq: ev.seq, delay: delay, head: ev, tail: ev})
	q.up(len(q.lanes) - 1)
}

// insert places ev, which sorts before lane i's tail, at its ordered
// position in the lane.
func (q *eventQueue) insert(i int, ev *event) {
	l := &q.lanes[i]
	if earlier(ev, l.head) {
		ev.next = l.head
		l.head, l.at, l.seq = ev, ev.at, ev.seq
		q.up(i)
		return
	}
	p := l.head
	for earlier(p.next, ev) {
		p = p.next
	}
	ev.next, p.next = p.next, ev
}

// peek returns the next event to pop; the queue must not be empty.
func (q *eventQueue) peek() *event { return q.lanes[0].head }

// pop removes and returns the (at, seq) minimum; the queue must not be
// empty.
func (q *eventQueue) pop() *event {
	l := &q.lanes[0]
	ev := l.head
	q.n--
	if next := ev.next; next != nil {
		ev.next = nil
		l.head, l.at, l.seq = next, next.at, next.seq
	} else {
		last := len(q.lanes) - 1
		q.lanes[0] = q.lanes[last]
		q.lanes[last] = lane{}
		q.lanes = q.lanes[:last]
	}
	q.down(0)
	return ev
}

// up restores the heap after lane i's key decreased.
func (q *eventQueue) up(i int) {
	h := q.lanes
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down restores the heap after lane i's key increased.
func (q *eventQueue) down(i int) {
	h := q.lanes
	n := len(h)
	if i >= n {
		return
	}
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].before(&h[c]) {
				c = k
			}
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// clone value-copies every pending event, lane by lane in order, into one
// contiguous block, and records each source event's copy in remap. The
// copied lanes keep their heap positions and keys, so they form a heap.
func (q *eventQueue) clone(remap map[*event]*event) eventQueue {
	c := eventQueue{n: q.n}
	if q.n == 0 {
		return c
	}
	evs := make([]event, q.n)
	c.lanes = make([]lane, len(q.lanes))
	k := 0
	for i, l := range q.lanes {
		first := k
		for ev := l.head; ev != nil; ev = ev.next {
			evs[k] = *ev
			if k > first {
				evs[k-1].next = &evs[k]
			}
			remap[ev] = &evs[k]
			k++
		}
		l.head, l.tail = &evs[first], &evs[k-1]
		c.lanes[i] = l
	}
	return c
}
