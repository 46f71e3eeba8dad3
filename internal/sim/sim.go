// Package sim implements a deterministic discrete-event simulator for
// clusters of nodes, the substrate on which the simulated distributed
// systems (internal/systems/...) run.
//
// The simulator provides a virtual clock, an event queue ordered by
// (time, sequence) (delay lanes, see queue.go), named nodes hosting
// message-handling services, timers (engine-wide and node-scoped),
// heartbeat helpers, and the two fault primitives the CrashTuner paper
// relies on:
//
//   - Crash: the node dies silently. In-flight messages to it are dropped
//     and its timers are cancelled; peers only learn of the crash through
//     their own liveness timeouts.
//   - Shutdown: the node leaves the cluster pro-actively. Registered
//     shutdown hooks run synchronously (delivering "goodbye" messages
//     immediately), emulating the graceful shutdown scripts the paper uses
//     to avoid waiting for liveness timeouts (§2.1).
//
// A dead node can be revived with Restart: it rejoins with fresh state
// under a new incarnation number, and everything scheduled on behalf of
// a previous incarnation — timers, periodic series, in-flight messages,
// death hooks — is inert. This models the recovery phase the paper's
// crash-recovery bugs live in.
//
// All scheduling decisions are driven by a seeded RNG and a total order on
// events, so a run with the same seed and the same injected faults is
// fully reproducible.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// Time is virtual time in microseconds since the start of the run.
type Time int64

// Common durations, expressed in virtual microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

func (t Time) String() string {
	switch {
	case t >= Hour:
		return fmt.Sprintf("%.2fh", float64(t)/float64(Hour))
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dus", int64(t))
	}
}

// NodeID identifies a node as "host:port", the same representation the
// paper's log analysis keys on (e.g. "node1:42349").
type NodeID string

// Host returns the host part of the node ID.
func (id NodeID) Host() string {
	for i := 0; i < len(id); i++ {
		if id[i] == ':' {
			return string(id[:i])
		}
	}
	return string(id)
}

// event is a scheduled callback. Events are recycled through the
// engine's freelist once dispatched or dropped; gen distinguishes
// incarnations so a stale Timer cannot cancel an unrelated reuse. inc is
// the bound node's incarnation at scheduling time: dispatch drops the
// event if the node has since been restarted, so timers and in-flight
// messages from a previous life are inert (see Restart).
type event struct {
	at   Time
	seq  uint64
	node NodeID // "" for engine-level events
	fn   func()
	// next links the event to its successor in its delay lane (see
	// queue.go); nil at the lane's tail and off the queue.
	next *event
	dead bool
	gen  uint32
	inc  uint32
	// msg is set instead of fn for message deliveries (see Send): keeping
	// the Message in the pooled event spares the per-send closure
	// allocation the hot paths of a forked injection run would otherwise
	// pay.
	msg   Message
	isMsg bool
	// period, when non-zero, marks a periodic event (see Every): after
	// dispatch, Run reschedules the same event at now+period instead of
	// recycling it.
	period Time
	// key, when non-empty, marks a data-driven timer (see AfterKeyed /
	// EveryKeyed): dispatch routes through the node's keyed-handler
	// registry with arg instead of calling a closure. Keyed events are
	// what makes the pending queue copyable — they describe work as data,
	// so Engine.Clone can carry them into a forked engine, which no
	// closure can survive.
	key string
	arg any
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It is safe to call on a nil Timer or after the
// timer has fired: once the underlying event has been recycled, the
// generation check makes Stop a no-op.
func (t *Timer) Stop() {
	if t != nil && t.ev != nil && t.ev.gen == t.gen {
		t.ev.dead = true
	}
}

// Message is a unit of communication between services on nodes.
type Message struct {
	From    NodeID
	To      NodeID
	Service string
	Kind    string
	Body    any
}

// Service handles messages delivered to a named endpoint on a node.
type Service interface {
	HandleMessage(e *Engine, m Message)
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(e *Engine, m Message)

// HandleMessage calls f(e, m).
func (f ServiceFunc) HandleMessage(e *Engine, m Message) { f(e, m) }

// KeyedHandler executes one keyed timer on behalf of a node. The arg is
// whatever the scheduling site passed to AfterKeyed/EveryKeyed; handlers
// must treat it as immutable (a cloned engine shares args with its
// source).
type KeyedHandler func(e *Engine, node NodeID, arg any)

// Node is a simulated machine.
type Node struct {
	ID       NodeID
	Hostname string
	Port     int
	alive    bool
	// incarnation counts the node's lives, starting at 1; Restart bumps
	// it, which retires every event bound to the previous life.
	incarnation uint32
	// services is a small association list rather than a map: nodes host
	// one or two endpoints, so a linear scan beats hashing the service
	// name on every delivery and spares the map allocation per node.
	services []svcEntry
	// keyed is the node's keyed-timer handler registry, an association
	// list like services. Cleared on Restart alongside them; rejoin and
	// clone wiring re-register.
	keyed []keyedEntry
	// shutdownHooks run synchronously, in registration order, when the
	// node is gracefully shut down.
	shutdownHooks []func(*Engine)
	// deathHooks run for both Crash and Shutdown, after the node is dead.
	deathHooks []func(*Engine, bool)
}

// Alive reports whether the node has not crashed or been shut down.
func (n *Node) Alive() bool { return n.alive }

// Incarnation returns the node's current incarnation number: 1 for its
// first life, incremented by every Restart.
func (n *Node) Incarnation() uint32 { return n.incarnation }

// OnShutdown registers a hook that runs synchronously during a graceful
// Shutdown, while the node is still alive.
func (n *Node) OnShutdown(fn func(*Engine)) {
	n.shutdownHooks = append(n.shutdownHooks, fn)
}

// OnDeath registers a hook invoked after the node dies; graceful reports
// whether the death was a Shutdown (true) or a Crash (false).
func (n *Node) OnDeath(fn func(e *Engine, graceful bool)) {
	n.deathHooks = append(n.deathHooks, fn)
}

// svcEntry is one named endpoint on a node.
type svcEntry struct {
	name string
	s    Service
}

// keyedEntry is one keyed-timer handler on a node.
type keyedEntry struct {
	key string
	h   KeyedHandler
}

// Register installs a service under the given name, replacing any
// previous registration of the same name.
func (n *Node) Register(service string, s Service) {
	for i := range n.services {
		if n.services[i].name == service {
			n.services[i].s = s
			return
		}
	}
	n.services = append(n.services, svcEntry{name: service, s: s})
}

// service looks up a registered endpoint, or nil.
func (n *Node) service(name string) Service {
	for i := range n.services {
		if n.services[i].name == name {
			return n.services[i].s
		}
	}
	return nil
}

// Handle installs a keyed-timer handler under key, replacing any
// previous registration. Keyed timers scheduled with AfterKeyed or
// EveryKeyed on this node dispatch through it.
func (n *Node) Handle(key string, h KeyedHandler) {
	for i := range n.keyed {
		if n.keyed[i].key == key {
			n.keyed[i].h = h
			return
		}
	}
	n.keyed = append(n.keyed, keyedEntry{key: key, h: h})
}

// keyedHandler looks up a registered keyed handler, or nil.
func (n *Node) keyedHandler(key string) KeyedHandler {
	for i := range n.keyed {
		if n.keyed[i].key == key {
			return n.keyed[i].h
		}
	}
	return nil
}

// FaultKind distinguishes the two injection primitives.
type FaultKind int

// Fault kinds.
const (
	FaultCrash     FaultKind = iota // silent failure
	FaultShutdown                   // graceful, pro-active leave
	FaultRestart                    // dead node revived under a new incarnation
	FaultPartition                  // network cut opened (see partition.go)
	FaultHeal                       // network cut healed
)

func (k FaultKind) String() string {
	switch k {
	case FaultShutdown:
		return "shutdown"
	case FaultRestart:
		return "restart"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	default:
		return "crash"
	}
}

// ParseFaultKind inverts FaultKind.String, so fault records persisted by
// their kind name (triage records, fleet wire results) rebuild exactly.
func ParseFaultKind(s string) (FaultKind, bool) {
	switch s {
	case "crash":
		return FaultCrash, true
	case "shutdown":
		return FaultShutdown, true
	case "restart":
		return FaultRestart, true
	case "partition":
		return FaultPartition, true
	case "heal":
		return FaultHeal, true
	}
	return FaultCrash, false
}

// FaultRecord describes an injected fault.
type FaultRecord struct {
	At   Time
	Node NodeID
	Kind FaultKind
}

// Engine owns the virtual clock, the event queue and the set of nodes.
type Engine struct {
	now Time
	seq uint64
	q   eventQueue
	// nodes holds every node in creation order. Clusters are a handful
	// of nodes, so lookups scan linearly instead of hashing the ID —
	// cheaper than a map on the per-event hot path, and iteration order
	// is the deterministic creation order for free.
	nodes   []*Node
	rng     *rand.Rand
	stopped bool
	// src is the RNG's cursor over the per-seed replay buffer. The engine
	// keeps the pointer rand.New hides so Clone can copy the stream
	// position — the whole RNG state — into a forked engine.
	src        *streamSource
	faults     []FaultRecord
	exceptions []Exception
	// monitors holds the liveness monitor running on each master node, so
	// the builtin LivenessKey timer dispatches as data (see heartbeat.go).
	monitors map[NodeID]*LivenessMonitor
	handled  uint64   // events dispatched
	recycled uint64   // freelist recycles (generation bumps), see Fingerprint
	free     []*event // recycled events for the scheduling fast path
	// lastNode is a one-entry lookup cache in front of the nodes scan.
	// Nodes are never removed (death only flips a flag) and the *Node is
	// mutated in place, so a cached pointer cannot go stale.
	lastNode *Node
	// nodeSlab backs the first nodeSlabSize nodes in one allocation. It
	// is grown only by reslicing within its fixed capacity — never
	// appended past it — so &nodeSlab[i] pointers stay valid for the
	// engine's life.
	nodeSlab []Node
	// part is the network-partition plane (see partition.go): at most one
	// active cut plus its held-message queue and cumulative counters.
	part     partitionState
	MaxSteps uint64 // safety valve; 0 means DefaultMaxSteps
	// MessageLatency is the default one-way latency for Send.
	MessageLatency Time
	// onStep, if set, is invoked before each event dispatch (used by
	// monitors and the hang oracle).
	onStep func(Time)
}

// DefaultMaxSteps bounds a run against runaway event loops.
const DefaultMaxSteps = 20_000_000

// NewEngine returns an engine with the given RNG seed. The RNG draws
// from the per-seed replay buffer (see rngstream.go), so constructing
// many engines on one seed — a snapshot-forked campaign — pays the
// expensive source seeding once per process instead of once per run.
func NewEngine(seed int64) *Engine {
	s := NewStream(seed)
	return &Engine{
		rng:            s.Rand,
		src:            s.src,
		MessageLatency: Millisecond,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded RNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Draws returns how many values the engine's random stream has handed
// out: zero means no model or engine code drew from Rand, so a run on
// any other seed would replay this one exactly.
func (e *Engine) Draws() int { return e.src.pos }

// SetStream makes s the engine's RNG: the engine's next draw is s's next
// draw. The caller must not draw from s afterwards.
func (e *Engine) SetStream(s Stream) { e.rng, e.src = s.Rand, s.src }

// Steps returns the number of events dispatched so far.
func (e *Engine) Steps() uint64 { return e.handled }

// nodeSlabSize is how many nodes the engine carves from one block; a
// cluster larger than this falls back to individual allocations.
const nodeSlabSize = 16

// AddNode creates a node named host:port and returns it.
func (e *Engine) AddNode(host string, port int) *Node {
	id := NodeID(host + ":" + strconv.Itoa(port))
	for _, n := range e.nodes {
		if n.ID == id {
			panic(fmt.Sprintf("sim: duplicate node %s", id))
		}
	}
	if e.nodeSlab == nil {
		e.nodeSlab = make([]Node, 0, nodeSlabSize)
	}
	var n *Node
	if len(e.nodeSlab) < cap(e.nodeSlab) {
		e.nodeSlab = e.nodeSlab[:len(e.nodeSlab)+1]
		n = &e.nodeSlab[len(e.nodeSlab)-1]
	} else {
		n = new(Node)
	}
	*n = Node{
		ID:          id,
		Hostname:    host,
		Port:        port,
		alive:       true,
		incarnation: 1,
	}
	e.nodes = append(e.nodes, n)
	return n
}

// Node returns the node with the given ID, or nil.
func (e *Engine) Node(id NodeID) *Node { return e.node(id) }

// node is the cached lookup used on the hot paths. Consecutive events
// overwhelmingly touch the same node (a heartbeat series, a message
// burst), and NodeID strings are copied around from the same backing
// array, so the equality check is usually a pointer compare.
func (e *Engine) node(id NodeID) *Node {
	if n := e.lastNode; n != nil && n.ID == id {
		return n
	}
	for _, n := range e.nodes {
		if n.ID == id {
			e.lastNode = n
			return n
		}
	}
	return nil
}

// Nodes returns all nodes in creation order.
func (e *Engine) Nodes() []*Node {
	out := make([]*Node, len(e.nodes))
	copy(out, e.nodes)
	return out
}

// AliveNodes returns the IDs of nodes still alive, in creation order.
func (e *Engine) AliveNodes() []NodeID {
	var out []NodeID
	for _, n := range e.nodes {
		if n.alive {
			out = append(out, n.ID)
		}
	}
	return out
}

// Faults returns the faults injected so far, in injection order.
func (e *Engine) Faults() []FaultRecord {
	out := make([]FaultRecord, len(e.faults))
	copy(out, e.faults)
	return out
}

// eventBlock is the freelist growth quantum; see schedule.
const eventBlock = 32

// schedule enqueues fn at absolute time at, bound to node (or "" for
// engine-level), under sequence number seq, or the next one when seq is
// 0 (numbers start at 1). The event comes from the freelist when one is
// available; callers that hand the event out wrap it in a Timer
// alongside its generation.
func (e *Engine) schedule(at Time, seq uint64, node NodeID, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	var inc uint32
	if node != "" {
		if n := e.node(node); n != nil {
			inc = n.incarnation
		}
	}
	if seq == 0 {
		e.seq++
		seq = e.seq
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		// Grow the freelist a block at a time: one allocation covers the
		// next eventBlock schedules, and neighbouring events share cache
		// lines while the queue is hot.
		block := make([]event, eventBlock)
		for i := len(block) - 1; i > 0; i-- {
			e.free = append(e.free, &block[i])
		}
		ev = &block[0]
	}
	ev.at, ev.seq, ev.node, ev.fn, ev.inc = at, seq, node, fn, inc
	e.q.push(ev, at-e.now)
	return ev
}

// recycle returns a popped event to the freelist, bumping its generation
// so outstanding Timers to the old incarnation become inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	e.recycled++
	ev.fn = nil
	ev.node = ""
	ev.dead = false
	ev.period = 0
	ev.key = ""
	ev.arg = nil
	if ev.isMsg {
		ev.msg = Message{}
		ev.isMsg = false
	}
	e.free = append(e.free, ev)
}

// After schedules fn to run after d elapses. The timer survives node
// failures; use Node-scoped scheduling via AfterOn for per-node timers.
func (e *Engine) After(d Time, fn func()) *Timer {
	ev := e.schedule(e.now+d, 0, "", fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// ReserveSeq takes the next scheduling sequence number without
// scheduling anything. AtSeq later spends it, on this engine or on a
// clone of it, so the event lands in the (time, seq) order it would have
// had if it had been scheduled at the reservation.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// AtSeq schedules fn at absolute time at under seq, a number ReserveSeq
// handed out. It does not advance the engine's sequence counter: the
// reservation already did.
func (e *Engine) AtSeq(at Time, seq uint64, fn func()) *Timer {
	ev := e.schedule(at, seq, "", fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// AfterOn schedules fn on behalf of node id; it is silently dropped if the
// node is dead when it fires.
func (e *Engine) AfterOn(id NodeID, d Time, fn func()) *Timer {
	ev := e.schedule(e.now+d, 0, id, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// AfterKeyed schedules a data-driven timer on behalf of node id: after d
// elapses, the handler registered under key on the node (see Node.Handle)
// runs with arg. Builtin keys (HeartbeatKey, LivenessKey) dispatch inside
// the engine without a registry lookup. Unlike After/AfterOn, the pending
// event holds no closure, so Engine.Clone can carry it into a forked
// engine. arg must be treated as immutable once scheduled — a clone
// shares it with the source.
//
// AfterKeyed must stay inlinable, so that a caller that drops the Timer
// keeps it on the stack instead of paying a heap allocation per timer.
func (e *Engine) AfterKeyed(id NodeID, d Time, key string, arg any) *Timer {
	ev := e.afterKeyed(id, d, key, arg)
	return &Timer{ev: ev, gen: ev.gen}
}

// afterKeyed is AfterKeyed's body, split out like everyEvent.
func (e *Engine) afterKeyed(id NodeID, d Time, key string, arg any) *event {
	if key == "" {
		panic("sim: AfterKeyed requires a non-empty key")
	}
	ev := e.schedule(e.now+d, 0, id, nil)
	ev.key, ev.arg = key, arg
	return ev
}

// EveryKeyed schedules a periodic data-driven timer: every period, the
// handler registered under key on node id runs with arg. It is Every with
// the closure replaced by a (key, arg) descriptor; see AfterKeyed for the
// cloning rationale and Every for the periodic-series semantics.
func (e *Engine) EveryKeyed(id NodeID, period Time, key string, arg any) *Timer {
	if key == "" {
		panic("sim: EveryKeyed requires a non-empty key")
	}
	ev := e.everyEvent(id, period, nil)
	ev.key, ev.arg = key, arg
	return &Timer{ev: ev, gen: ev.gen}
}

// Every schedules fn every period, starting after one period, on behalf of
// node id. The returned Timer stops the series.
//
// Periodic series are engine-native: the dispatched event reschedules
// itself (see Run), so a series costs one event for its whole life
// instead of a fresh closure and timer update per tick. As before, a
// Stop issued from inside fn does not take effect until the series'
// Timer is observed between ticks — the callback's own tick has already
// committed to rescheduling.
func (e *Engine) Every(id NodeID, period Time, fn func()) *Timer {
	ev := e.everyEvent(id, period, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// everyEvent is Every's body, split out so Every itself stays under the
// inlining budget: callers that discard the Timer then get it on the
// stack instead of a heap allocation per series.
func (e *Engine) everyEvent(id NodeID, period Time, fn func()) *event {
	if period <= 0 {
		period = 1
	}
	ev := e.schedule(e.now+period, 0, id, fn)
	ev.period = period
	return ev
}

// Send delivers m.Kind/m.Body from m.From to service m.Service on node
// m.To after the engine's message latency. Messages to dead nodes are
// dropped; senders are expected to use their own timeouts, as real systems
// do.
func (e *Engine) Send(from, to NodeID, service, kind string, body any) {
	lat := e.MessageLatency
	// A PartitionDelay cut charges its extra latency here, once per send;
	// drop/hold cuts act at dispatch instead so in-flight messages are
	// affected too (see Run and partition.go).
	if e.part.active && e.part.mode == PartitionDelay && e.part.cuts(from, to) {
		lat += e.part.delay
		e.part.delayed++
	}
	ev := e.schedule(e.now+lat, 0, to, nil)
	ev.msg = Message{From: from, To: to, Service: service, Kind: kind, Body: body}
	ev.isMsg = true
}

// Crash kills the node silently: no hooks that talk to peers, timers and
// in-flight messages bound to the node are dropped.
func (e *Engine) Crash(id NodeID) {
	n := e.node(id)
	if n == nil || !n.alive {
		return
	}
	n.alive = false
	e.faults = append(e.faults, FaultRecord{At: e.now, Node: id, Kind: FaultCrash})
	for _, fn := range n.deathHooks {
		fn(e, false)
	}
}

// Shutdown gracefully stops the node: shutdown hooks run synchronously
// while the node is still alive (typically deregistering with masters),
// then the node dies. This emulates the cluster shutdown scripts the paper
// uses so the test does not have to wait for liveness timeouts.
func (e *Engine) Shutdown(id NodeID) {
	n := e.node(id)
	if n == nil || !n.alive {
		return
	}
	for _, fn := range n.shutdownHooks {
		fn(e)
	}
	n.alive = false
	e.faults = append(e.faults, FaultRecord{At: e.now, Node: id, Kind: FaultShutdown})
	for _, fn := range n.deathHooks {
		fn(e, true)
	}
}

// Restart revives a dead node under a new incarnation: the node comes
// back alive with an empty service table and no shutdown/death hooks,
// and every timer, periodic series or in-flight message bound to a
// previous incarnation is silently dropped at dispatch. Callers are
// expected to re-create services and background work afterwards (the
// per-system rejoin factories, see cluster.Restart). The restart is
// recorded as a FaultRecord so schedules stay auditable. It returns
// false if the node is unknown or still alive.
func (e *Engine) Restart(id NodeID) bool {
	n := e.node(id)
	if n == nil || n.alive {
		return false
	}
	n.alive = true
	n.incarnation++
	n.services = nil
	n.keyed = nil
	n.shutdownHooks = nil
	n.deathHooks = nil
	e.faults = append(e.faults, FaultRecord{At: e.now, Node: id, Kind: FaultRestart})
	return true
}

// OnStep installs a callback invoked with the virtual time before each
// event dispatch.
func (e *Engine) OnStep(fn func(Time)) { e.onStep = fn }

// Stop halts the run after the current event.
func (e *Engine) Stop() { e.stopped = true }

// RunResult summarizes a completed run.
type RunResult struct {
	End       Time
	Steps     uint64
	Exhausted bool // hit MaxSteps
	Deadline  bool // stopped at the deadline with events still queued
}

// Run dispatches events until the queue empties, Stop is called, the
// deadline passes (deadline <= 0 means no deadline), or MaxSteps events
// have been dispatched.
func (e *Engine) Run(deadline Time) RunResult {
	maxSteps := e.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	for e.q.n > 0 && !e.stopped {
		ev := e.q.peek()
		if deadline > 0 && ev.at > deadline {
			e.now = deadline
			return RunResult{End: e.now, Steps: e.handled, Deadline: true}
		}
		e.q.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		var n *Node
		if ev.node != "" {
			// Dropping on an incarnation mismatch is what makes stale
			// timers and in-flight messages from a restarted node's
			// previous life inert.
			n = e.node(ev.node)
			if n == nil || !n.alive || n.incarnation != ev.inc {
				e.recycle(ev)
				continue
			}
		}
		e.now = ev.at
		if e.onStep != nil {
			e.onStep(e.now)
		}
		e.handled++
		if ev.isMsg {
			if e.part.active && e.part.mode != PartitionDelay && e.part.cuts(ev.msg.From, ev.msg.To) {
				// The message crosses the open cut at delivery time: drop it,
				// or capture it for re-send at heal. The dispatch still counts
				// as a handled step — the network "processed" the packet.
				if e.part.mode == PartitionHold {
					e.part.held = append(e.part.held, ev.msg)
					e.part.captured++
				} else {
					e.part.dropped++
				}
				e.recycle(ev)
			} else {
				// Deliver, then recycle: the handler call copies ev.msg into
				// its argument frame anyway, so recycling afterwards spares a
				// second Message copy.
				if n != nil {
					if s := n.service(ev.msg.Service); s != nil {
						s.HandleMessage(e, ev.msg)
					}
				}
				e.recycle(ev)
			}
		} else if ev.period > 0 {
			if ev.key != "" {
				e.dispatchKeyed(ev.node, ev.key, ev.arg)
			} else {
				ev.fn()
			}
			// Reschedule the same event, into its period's delay lane,
			// unless the callback killed the bound node; the series costs
			// no per-tick allocation. The dead flag is reset because a
			// Stop issued from inside the callback keeps the closure-era
			// semantics: it lands after this tick has already committed
			// to the next one.
			if nn := e.node(ev.node); nn == nil || nn.alive {
				var inc uint32
				if nn != nil {
					inc = nn.incarnation
				}
				e.seq++
				ev.at, ev.seq, ev.inc, ev.dead = e.now+ev.period, e.seq, inc, false
				e.q.push(ev, ev.period)
			} else {
				e.recycle(ev)
			}
		} else if ev.key != "" {
			// Recycle before dispatch, mirroring the fn branch: the handler
			// may schedule and the event is free for reuse.
			node, key, arg := ev.node, ev.key, ev.arg
			e.recycle(ev)
			e.dispatchKeyed(node, key, arg)
		} else {
			fn := ev.fn
			e.recycle(ev)
			fn()
		}
		if e.handled >= maxSteps {
			return RunResult{End: e.now, Steps: e.handled, Exhausted: true}
		}
	}
	return RunResult{End: e.now, Steps: e.handled}
}

// Builtin keyed-timer keys, dispatched inside the engine so the helpers
// in heartbeat.go stay closure-free (and therefore cloneable) without
// every system registering handlers for them.
const (
	// HeartbeatKey drives StartHeartbeats' periodic send; arg is an hbArg.
	HeartbeatKey = "sim.hb"
	// LivenessKey drives a LivenessMonitor's periodic check; arg is unused.
	// The monitor is found through the engine's monitors registry.
	LivenessKey = "sim.lm"
)

// dispatchKeyed routes one fired keyed timer. Builtin keys are handled in
// the engine; everything else goes through the node's registry. A missing
// handler is a wiring bug — a system scheduled a keyed timer but its
// (re-)wiring path forgot Node.Handle — and panics loudly rather than
// dropping work silently; campaign panic isolation converts it to a
// HarnessError.
func (e *Engine) dispatchKeyed(id NodeID, key string, arg any) {
	switch key {
	case HeartbeatKey:
		a := arg.(hbArg)
		e.Send(id, a.master, a.service, a.kind, nil)
		return
	case LivenessKey:
		lm := e.monitors[id]
		if lm == nil {
			panic(fmt.Sprintf("sim: liveness timer on %s with no registered monitor", id))
		}
		lm.check()
		return
	}
	n := e.node(id)
	var h KeyedHandler
	if n != nil {
		h = n.keyedHandler(key)
	}
	if h == nil {
		panic(fmt.Sprintf("sim: keyed timer %q fired on %s with no handler registered", key, id))
	}
	h(e, id, arg)
}

// Quiesce runs with no deadline and panics if the run exhausts MaxSteps;
// it is a convenience for tests.
func (e *Engine) Quiesce() RunResult {
	r := e.Run(0)
	if r.Exhausted {
		panic("sim: event loop did not quiesce")
	}
	return r
}

// SortedNodeIDs returns all node IDs in lexical order (useful for stable
// reports).
func (e *Engine) SortedNodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(e.nodes))
	for _, n := range e.nodes {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
