package sim

// Exception models a thrown exception inside a simulated system. The
// CrashTuner oracle (§3.2.2) reports a bug when a run surfaces "uncommon
// exceptions in the logs": exception signatures never seen in fault-free
// baseline runs. That is a membership test over distinct signatures, so
// the engine keeps the first occurrence of each (Signature, Handled)
// pair and drops repeats: At, Node and Message describe that first
// occurrence, which is the one a causal chain back to the injection
// would start from. Simulated systems report every exception they raise
// — handled or not — through Throw, and the oracle compares signatures
// against a baseline census.
type Exception struct {
	At        Time
	Node      NodeID
	Signature string // e.g. "NullPointerException@Scheduler.completeContainer"
	Message   string
	Handled   bool // true if a handler caught it and the system continued
}

// throwHook, when non-nil, sees every Throw before repeats are dropped.
// Only tests set it (see export_test.go), to check the deduplicated list
// against the full occurrence stream.
var throwHook func(*Engine, Exception)

// Throw records an exception raised on node id, unless the run already
// recorded one with the same signature and handled flag. A run keeps a
// handful of distinct pairs, so a linear scan finds a repeat.
func (e *Engine) Throw(id NodeID, signature, message string, handled bool) {
	if throwHook != nil {
		throwHook(e, Exception{At: e.now, Node: id, Signature: signature, Message: message, Handled: handled})
	}
	for i := range e.exceptions {
		if ex := &e.exceptions[i]; ex.Handled == handled && ex.Signature == signature {
			return
		}
	}
	e.exceptions = append(e.exceptions, Exception{At: e.now, Node: id, Signature: signature, Message: message, Handled: handled})
}

// Exceptions returns the first occurrence of each distinct (signature,
// handled) pair thrown during the run, in first-occurrence order. The
// slice is the engine's own list, capped at its length so that neither
// a caller's append nor a later Throw can reach the other's elements;
// callers must not modify its elements.
func (e *Engine) Exceptions() []Exception {
	return e.exceptions[:len(e.exceptions):len(e.exceptions)]
}

// Abort marks node id as dead due to an unhandled fatal error (e.g. an
// uncaught NullPointerException aborting a master). It records the
// exception as unhandled and kills the node silently — peers learn of the
// abort through their own timeouts, exactly as with a crash — but the
// fault is *not* recorded as an injected fault, since it is a consequence
// of a bug rather than of the test harness.
func (e *Engine) Abort(id NodeID, signature, message string) {
	e.Throw(id, signature, message, false)
	n := e.node(id)
	if n == nil || !n.alive {
		return
	}
	n.alive = false
	for _, fn := range n.deathHooks {
		fn(e, false)
	}
}
