// Package crashpoint implements the static crash point analysis of
// §3.1.2: program points just before a read of a meta-info variable
// (pre-read points) or just after a write to one (post-write points),
// pruned by the paper's three optimizations and with return-only reads
// promoted to their call sites.
package crashpoint

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/metainfo"
)

// Scenario is the crash-point scenario of §2.
type Scenario int

// Scenarios.
const (
	PreRead   Scenario = iota // crash the owner node before the read
	PostWrite                 // crash the owner node after the write
)

func (s Scenario) String() string {
	if s == PostWrite {
		return "post-write"
	}
	return "pre-read"
}

// ParseScenario inverts String, for rebuilding points from persisted
// triage records. It also accepts the extended injection encodings
// ("pre-read+partition", "post-write+partition@123"), returning their
// base scenario, so callers that only care about the crash-point half
// parse every persisted record; use ParseInjection for the full
// identity.
func ParseScenario(s string) (Scenario, bool) {
	inj, ok := ParseInjection(s)
	if !ok {
		return 0, false
	}
	return inj.Scenario, true
}

// StaticPoint is one static crash point.
type StaticPoint struct {
	// Point is the instruction the injection hooks: the access itself,
	// or the call site for promoted points.
	Point    ir.PointID
	Scenario Scenario
	// Field is the meta-info field accessed.
	Field ir.FieldID
	// Kind is the meta-info kind of the field (Node, Container, ...).
	Kind string
	// PromotedFrom is the original read instruction when the point was
	// promoted to a call site (§3.1.2 "If a read reference is only used
	// in the return statements of a method...").
	PromotedFrom ir.PointID
}

// Key returns a stable identity for deduplication and reporting.
func (sp StaticPoint) Key() string {
	return fmt.Sprintf("%s/%s/%s", sp.Point, sp.Scenario, sp.Field)
}

// PruneStats counts points discarded per optimization (Table 12).
type PruneStats struct {
	Constructor int // field only set in constructors of its class
	Unused      int // read value unused / log-only / toString-only
	SanityCheck int // read value null-checked before use
}

// Total returns the total pruned count.
func (p PruneStats) Total() int { return p.Constructor + p.Unused + p.SanityCheck }

// PrunedPoint records a candidate removed by an optimization; the
// §4.3.1 soundness probe re-tests a sample of these.
type PrunedPoint struct {
	Point    ir.PointID
	Scenario Scenario
	Field    ir.FieldID
	Why      string // "constructor", "unused", "sanity-check"
}

// Result of the static analysis.
type Result struct {
	Points []StaticPoint
	Pruned PruneStats
	// PrunedPoints lists every candidate an optimization removed.
	PrunedPoints []PrunedPoint
	// Candidates is the number of meta-info access points considered
	// before optimization (the Table 10 "Meta-info Access Points" column
	// restricted to classified read/write operations).
	Candidates int
}

// Analyze computes the static crash points for the program underlying a.
func Analyze(a *metainfo.Analysis) *Result {
	res := &Result{}
	// Each point's key is rendered once, for the dedup and for the sort.
	seen := make(map[string]bool)
	var keys []string
	add := func(sp StaticPoint) {
		if k := sp.Key(); !seen[k] {
			seen[k] = true
			res.Points = append(res.Points, sp)
			keys = append(keys, k)
		}
	}
	p := a.Program
	for _, ins := range a.MetaAccessPoints() {
		f := p.Field(ins.Field)
		fi := a.Fields[ins.Field]
		if f == nil || fi == nil {
			continue
		}
		var scen Scenario
		isRead := false
		switch ins.Op {
		case ir.OpGetField:
			scen, isRead = PreRead, true
		case ir.OpPutField:
			scen = PostWrite
		case ir.OpCollOp:
			switch ir.ClassifyCollMethod(ins.CollMethod) {
			case ir.CollRead:
				scen, isRead = PreRead, true
			case ir.CollWrite:
				scen = PostWrite
			default:
				continue // not a recognized accessor (Table 3)
			}
		default:
			continue
		}
		res.Candidates++

		// Optimization 1: fields only set in constructors. The containing
		// class is itself a meta-info type (Definition 2), so later
		// references to the field are redundant crash points.
		if f.SetOnlyInCtor {
			res.Pruned.Constructor++
			res.PrunedPoints = append(res.PrunedPoints,
				PrunedPoint{Point: ins.ID, Scenario: scen, Field: ins.Field, Why: "constructor"})
			continue
		}
		if isRead {
			switch ins.Use {
			case ir.UseUnused, ir.UseLogOnly, ir.UseStringOnly:
				// Optimization 2: the read value never feeds real work.
				res.Pruned.Unused++
				res.PrunedPoints = append(res.PrunedPoints,
					PrunedPoint{Point: ins.ID, Scenario: scen, Field: ins.Field, Why: "unused"})
				continue
			case ir.UseSanityChecked:
				// Optimization 3: the implementation already checks the
				// value, suggesting a fault-tolerance scheme.
				res.Pruned.SanityCheck++
				res.PrunedPoints = append(res.PrunedPoints,
					PrunedPoint{Point: ins.ID, Scenario: scen, Field: ins.Field, Why: "sanity-check"})
				continue
			case ir.UseReturnedOnly:
				// Promotion: hook the call sites instead, simplifying the
				// call stacks of the dynamic points.
				mid, _, _ := ir.SplitPoint(ins.ID)
				callers := p.Callers(mid)
				if len(callers) == 0 {
					add(StaticPoint{Point: ins.ID, Scenario: scen, Field: ins.Field, Kind: fi.Kind})
					continue
				}
				for _, call := range callers {
					add(StaticPoint{
						Point:        call.ID,
						Scenario:     scen,
						Field:        ins.Field,
						Kind:         fi.Kind,
						PromotedFrom: ins.ID,
					})
				}
				continue
			}
		}
		add(StaticPoint{Point: ins.ID, Scenario: scen, Field: ins.Field, Kind: fi.Kind})
	}
	sort.Sort(byKey{keys, res.Points})
	return res
}

// byKey sorts points by their precomputed keys, keys[i] being
// points[i].Key().
type byKey struct {
	keys   []string
	points []StaticPoint
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.points[i], b.points[j] = b.points[j], b.points[i]
}

// ByScenario splits points into pre-read and post-write sets.
func (r *Result) ByScenario() (preRead, postWrite []StaticPoint) {
	for _, sp := range r.Points {
		if sp.Scenario == PreRead {
			preRead = append(preRead, sp)
		} else {
			postWrite = append(postWrite, sp)
		}
	}
	return preRead, postWrite
}

// Find returns the static points hooked at instruction id.
func (r *Result) Find(id ir.PointID) []StaticPoint {
	var out []StaticPoint
	for _, sp := range r.Points {
		if sp.Point == id {
			out = append(out, sp)
		}
	}
	return out
}
