// Package metainfo implements the paper's meta-info analysis (§3.1):
// inferring meta-info variables — variables referencing high-level system
// state such as nodes, containers and task attempts — from runtime logs,
// and generalizing them to meta-info types with a type-based static
// analysis (Definition 2).
package metainfo

import (
	"slices"
	"sort"
	"strings"
)

// Graph is the runtime meta-info association of Fig. 5(d)/Fig. 6: a set
// of node values (host:port strings) plus a map from every other observed
// meta-info value to the node it belongs to. The same structure backs the
// offline analysis here and the online stash (internal/stash).
type Graph struct {
	// hosts is the configured hostnames, sorted and deduplicated: a
	// slice rather than a set, because NodeValue scans every host for
	// every value it sees.
	hosts []string
	// nodes is the HashSet of Fig. 6.
	nodes map[string]bool
	// assoc is the HashMap of Fig. 6: value -> node value.
	assoc map[string]string
	// hostToNode canonicalizes a bare hostname to the host:port node
	// value once one has been seen.
	hostToNode map[string]string
	// shared marks the mutable maps as aliased by a Snapshot: the next
	// mutation clones them first (copy-on-write), so snapshots stay
	// frozen at their capture instant for free when no mutation follows.
	shared bool
}

// NewGraph returns an empty graph for a cluster with the given configured
// hostnames (the paper reads these from the system configuration file).
func NewGraph(hosts []string) *Graph {
	sorted := append([]string(nil), hosts...)
	sort.Strings(sorted)
	return &Graph{
		hosts:      slices.Compact(sorted),
		nodes:      make(map[string]bool),
		assoc:      make(map[string]string),
		hostToNode: make(map[string]string),
	}
}

// NodeValue extracts the canonical node value (host:port) referenced by a
// runtime value, if any: the value must contain a configured hostname,
// optionally followed by :port. A bare hostname canonicalizes to the
// host:port node previously seen for that host, or to itself if none.
func (g *Graph) NodeValue(v string) (string, bool) {
	// A value can mention several configured hosts (an hdfs replication
	// pipeline names source and destination in one token), so the scan
	// must be deterministic: the leftmost match in v wins, ties broken
	// lexically — never map iteration order, which would make target
	// resolution (and thus whole campaign tables) vary run to run.
	bestIdx := -1
	bestHost, bestVal := "", ""
	for _, h := range g.hosts {
		i := strings.Index(v, h)
		if i < 0 {
			continue
		}
		// Hostname boundary check: must not be mid-identifier.
		if i > 0 && isWordByte(v[i-1]) {
			continue
		}
		rest := v[i+len(h):]
		val := ""
		if len(rest) > 0 && rest[0] == ':' {
			j := 1
			for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
				j++
			}
			if j > 1 {
				val = h + rest[:j]
			}
		}
		if val == "" {
			if len(rest) > 0 && isWordByte(rest[0]) {
				continue
			}
			if n, ok := g.hostToNode[h]; ok {
				val = n
			} else {
				val = h
			}
		}
		if bestIdx < 0 || i < bestIdx || (i == bestIdx && h < bestHost) {
			bestIdx, bestHost, bestVal = i, h, val
		}
	}
	if bestIdx < 0 {
		return "", false
	}
	return bestVal, true
}

// Snapshot returns a frozen copy-on-write view of the graph: the
// snapshot aliases the current maps and answers NodeOf/NodeValue queries
// exactly as the graph would right now, while the next mutation of the
// live graph clones the maps first, leaving every outstanding snapshot
// untouched. Taking a snapshot is O(1); the clone cost is paid at most
// once per snapshot, by the first mutation after it. Snapshots are
// immutable and therefore safe for concurrent readers; hosts never
// change after construction and are always aliased.
func (g *Graph) Snapshot() *Graph {
	g.shared = true
	return &Graph{
		hosts:      g.hosts,
		nodes:      g.nodes,
		assoc:      g.assoc,
		hostToNode: g.hostToNode,
		shared:     true,
	}
}

// mutate unshares the mutable maps before a write when a Snapshot
// aliases them.
func (g *Graph) mutate() {
	if !g.shared {
		return
	}
	nodes := make(map[string]bool, len(g.nodes))
	for k, v := range g.nodes {
		nodes[k] = v
	}
	assoc := make(map[string]string, len(g.assoc))
	for k, v := range g.assoc {
		assoc[k] = v
	}
	hostToNode := make(map[string]string, len(g.hostToNode))
	for k, v := range g.hostToNode {
		hostToNode[k] = v
	}
	g.nodes, g.assoc, g.hostToNode = nodes, assoc, hostToNode
	g.shared = false
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_'
}

// Observe processes the values of one runtime log instance in FIFO order
// (§3.2.1): node values join the node set; other values are associated to
// the node referenced in the same instance, directly or through a value
// already associated; values with no node relationship are discarded.
func (g *Graph) Observe(values []string) {
	var node string
	// First scan: direct node references win.
	for _, v := range values {
		if nv, ok := g.NodeValue(v); ok {
			g.addNode(nv)
			if node == "" {
				node = nv
			}
		}
	}
	// Second scan: fall back to a value that is already associated.
	if node == "" {
		for _, v := range values {
			if n, ok := g.assoc[v]; ok {
				node = n
				break
			}
		}
	}
	if node == "" {
		return
	}
	for _, v := range values {
		if _, isNode := g.NodeValue(v); isNode {
			continue
		}
		if _, dup := g.assoc[v]; !dup {
			g.mutate()
			g.assoc[v] = node
		}
	}
}

func (g *Graph) addNode(nv string) {
	g.mutate()
	g.nodes[nv] = true
	host := nv
	if i := strings.IndexByte(nv, ':'); i >= 0 {
		host = nv[:i]
		// Upgrade any earlier bare-host node and associations to the
		// canonical host:port value.
		if g.nodes[host] {
			delete(g.nodes, host)
			for v, n := range g.assoc {
				if n == host {
					g.assoc[v] = nv
				}
			}
		}
		g.hostToNode[host] = nv
	}
}

// NodeOf returns the node a value belongs to: the value itself if it is a
// node value (values matching the configured host names identify their
// node directly, as in §3.1.1 — no prior sighting needed), or its
// association. ok is false for unknown values.
func (g *Graph) NodeOf(v string) (string, bool) {
	if nv, ok := g.NodeValue(v); ok {
		return nv, true
	}
	if n, ok := g.assoc[v]; ok {
		return n, true
	}
	return "", false
}

// Nodes returns the node set, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasNode reports whether a node value was ever observed (after
// canonicalization); unlike NodeOf it never treats an unobserved value
// as implicitly known, so callers can ask "has this view actually seen
// that node?" (the cross-node invariant checks of internal/partition).
func (g *Graph) HasNode(v string) bool {
	if g.nodes[v] {
		return true
	}
	if nv, ok := g.hostToNode[v]; ok {
		return g.nodes[nv]
	}
	if i := strings.IndexByte(v, ':'); i >= 0 {
		return g.nodes[v[:i]]
	}
	return false
}

// Owner returns a value's recorded association, without the node-value
// self-resolution of NodeOf: node values and never-associated values
// report ok=false. The cross-view convergence check wants exactly the
// recorded edges, not the implicit ones.
func (g *Graph) Owner(v string) (string, bool) {
	n, ok := g.assoc[v]
	return n, ok
}

// Values returns the associated (non-node) values, sorted.
func (g *Graph) Values() []string {
	out := make([]string, 0, len(g.assoc))
	for v := range g.assoc {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Associations returns a copy of the value→node map.
func (g *Graph) Associations() map[string]string {
	out := make(map[string]string, len(g.assoc))
	for k, v := range g.assoc {
		out[k] = v
	}
	return out
}

// Len returns the number of associated (non-node) values.
func (g *Graph) Len() int { return len(g.assoc) }
