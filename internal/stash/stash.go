// Package stash implements the paper's online log analysis (§3.2.1): a
// per-run log collector that extracts runtime meta-info values from log
// instances as they are produced and relates each value to the node it
// belongs to, so the Trigger can answer "which node owns this value?" at
// a crash point.
//
// The paper deploys Logstash agents on every node that forward only the
// runtime values of meta-info variables (selected by regex filters
// derived offline) to a custom stash node, which maintains a HashSet of
// node values and a HashMap from every other value to its node (Fig. 6).
// Here the agent is a tap on the run's log root; extraction reuses the
// offline matcher, selecting only the values of arguments whose types (or
// linked fields) were inferred as meta-info.
package stash

import (
	"sync"

	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Process-wide stash instruments on the default registry, pre-allocated
// atomics so the tap path stays allocation-free.
var (
	lookupTotal    = obs.Default.Counter("crashtuner_stash_lookups_total")
	lookupHits     = obs.Default.Counter("crashtuner_stash_lookup_hits_total")
	forwardedTotal = obs.Default.Counter("crashtuner_stash_forwarded_total")
)

// Stash is the custom-stash node state: the runtime meta-info graph plus
// counters for reporting.
//
// The paper's stash is a single node fed concurrently by Logstash agents
// on every cluster node, so the Stash is safe for concurrent use:
// Process and the queries serialize on an internal mutex. Within one
// simulated run the taps fire on a single goroutine, but parallel
// campaigns run many simulations at once and nothing stops a system
// model from fanning its agents out. Read the exported counters only
// after the run has quiesced.
type Stash struct {
	mu       sync.Mutex
	graph    *metainfo.Graph
	matcher  *logparse.Matcher
	analysis *metainfo.Analysis
	// session is the stash's matching scratch state; Process already
	// serializes on mu, so one session serves every agent. fwd is the
	// reused forward buffer of Process.
	session *logparse.MatchSession
	fwd     []string
	// Forwarded counts values the agents sent to the stash (after
	// filtering); Instances counts log records the agents saw.
	Forwarded int
	Instances int
}

// New builds a stash using the offline analysis results: the matcher's
// patterns act as the agents' extraction filters, and the meta-info
// analysis decides which argument values are worth forwarding.
func New(hosts []string, matcher *logparse.Matcher, analysis *metainfo.Analysis) *Stash {
	return &Stash{
		graph:    metainfo.NewGraph(hosts),
		matcher:  matcher,
		analysis: analysis,
		session:  matcher.NewSession(),
	}
}

// Attach subscribes the stash's agent to a run's log root; every record
// is processed synchronously in emission (FIFO) order.
func (s *Stash) Attach(root *dslog.Root) {
	root.AddTap(s.Process)
}

// Process handles one log record: match it to a pattern, keep the values
// of meta-info arguments (plus any node-referencing values), and feed
// them to the graph.
func (s *Stash) Process(rec dslog.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Instances++
	if m := s.session.Match(rec); m != nil {
		s.forward(m)
	}
}

// ProcessMatch is Process for a record the caller has already matched
// with the stash's matcher, such as an offline replay of a parsed log
// stream: it feeds the match's kept values to the graph.
func (s *Stash) ProcessMatch(m *logparse.Match) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Instances++
	s.forward(m)
}

// forward keeps the meta-info values of one matched record and feeds
// them to the graph. The caller holds mu.
func (s *Stash) forward(m *logparse.Match) {
	forward := s.fwd[:0]
	for i, arg := range m.Pattern.Stmt.Args {
		if i >= len(m.Values) {
			break
		}
		v := m.Values[i]
		if s.keep(arg, v) {
			forward = append(forward, v)
		}
	}
	s.fwd = forward[:0]
	if len(forward) == 0 {
		return
	}
	s.Forwarded += len(forward)
	forwardedTotal.Add(uint64(len(forward)))
	// Observe only reads the slice; the buffer is reused on the next call.
	s.graph.Observe(forward)
}

// keep decides whether an agent forwards a value: node-referencing values
// always pass the filter; otherwise the argument's type (or its linked
// field) must have been inferred as meta-info.
func (s *Stash) keep(arg ir.LogArg, v string) bool {
	if _, ok := s.graph.NodeValue(v); ok {
		return true
	}
	if s.analysis == nil {
		return false
	}
	if s.analysis.IsMetaType(arg.Type) {
		return true
	}
	if arg.Field != "" && s.analysis.IsMetaField(arg.Field) {
		return true
	}
	return false
}

// View is an immutable point-in-time capture of the stash's value→node
// state: the node HashSet and value→node HashMap of Fig. 6 exactly as
// they stood when Snapshot was called. It answers the same queries as
// the live stash but needs no lock — nothing can mutate it — so a
// snapshot plan can serve target resolution to many concurrent forked
// injection runs from one reference pass (see internal/trigger).
type View struct {
	graph *metainfo.Graph
}

// Snapshot captures the stash's current association state as a frozen
// copy-on-write view: O(1) now, with the live stash paying one map clone
// on its next mutation (metainfo.Graph.Snapshot).
func (s *Stash) Snapshot() *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &View{graph: s.graph.Snapshot()}
}

// Query returns the node owning a value at the capture instant, with the
// same semantics (and instruments) as Stash.Query.
func (v *View) Query(value string) (sim.NodeID, bool) {
	lookupTotal.Inc()
	n, ok := v.graph.NodeOf(value)
	if !ok {
		return "", false
	}
	lookupHits.Inc()
	return sim.NodeID(n), true
}

// QueryAny returns the node owning the first resolvable value.
func (v *View) QueryAny(values []string) (sim.NodeID, bool) {
	for _, val := range values {
		if n, ok := v.Query(val); ok {
			return n, true
		}
	}
	return "", false
}

// Query returns the node owning a runtime meta-info value, as in the
// Trigger's get_node_by_id (Fig. 7). ok is false for unknown values.
func (s *Stash) Query(value string) (sim.NodeID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lookupTotal.Inc()
	n, ok := s.graph.NodeOf(value)
	if !ok {
		return "", false
	}
	lookupHits.Inc()
	return sim.NodeID(n), true
}

// QueryAny returns the node owning the first resolvable value.
func (s *Stash) QueryAny(values []string) (sim.NodeID, bool) {
	for _, v := range values {
		if n, ok := s.Query(v); ok {
			return n, true
		}
	}
	return "", false
}

// Nodes returns the recorded node set.
func (s *Stash) Nodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph.Nodes()
}

// Associations exposes the value→node map (Fig. 6) for reporting.
func (s *Stash) Associations() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph.Associations()
}
