package metainfo

import (
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/logparse"
)

// TypeInfo records why a type is meta-info.
type TypeInfo struct {
	Type ir.TypeID
	// FromLog marks types identified directly by log analysis (annotated
	// with * in Table 2); others are derived by the static analysis.
	FromLog bool
	// Kind is the meta-info the type refers to ("Node", "Container",
	// "ApplicationAttempt", ...); types referring to the same meta-info
	// are grouped under one kind as in Table 2.
	Kind string
	// Via explains the derivation ("logged", "subtype of X",
	// "collection of X", "contains ctor-set field of X", "base field X").
	Via string
}

// FieldInfo records why a field is a meta-info field.
type FieldInfo struct {
	Field *ir.Field
	// Kind is inherited from the meta-info type involved.
	Kind string
	// Via explains the classification.
	Via string
}

// Analysis is the result of meta-info inference for one program.
type Analysis struct {
	Program *ir.Program
	Graph   *Graph
	// Types maps every meta-info type to its provenance.
	Types map[ir.TypeID]*TypeInfo
	// Fields maps every meta-info field to its provenance.
	Fields map[ir.FieldID]*FieldInfo
}

// kindOf derives a kind label from a type name: the class short name with
// Id/PBImpl/Impl/Info suffixes stripped, so NodeId, NodeIdPBImpl and
// RMNodeImpl group under "Node" as in Table 2.
func kindOf(t ir.TypeID) string {
	s := string(t)
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	for _, suf := range []string{"PBImpl", "Impl", "Id", "Info"} {
		s = strings.TrimSuffix(s, suf)
	}
	if s == "" {
		s = string(t)
	}
	return s
}

// InferOpts tunes the analysis; the zero value is the paper's
// configuration.
type InferOpts struct {
	// NoClosure disables the Definition-2 type closure (subtypes,
	// collection types, containing classes), leaving only the types
	// identified directly by log analysis — the ablation of DESIGN.md §5.
	// Field classification still runs so access points can be counted.
	NoClosure bool
}

// Infer runs the full meta-info analysis: it replays the parsed log
// instances through the runtime graph, seeds meta-info types from logged
// variables (§3.1.1), then closes the set under Definition 2 (§3.1.2) and
// classifies every meta-info field of the program.
func Infer(p *ir.Program, matches []*logparse.Match, hosts []string) *Analysis {
	return InferWith(p, matches, hosts, InferOpts{})
}

// InferWith is Infer with explicit options.
func InferWith(p *ir.Program, matches []*logparse.Match, hosts []string, opts InferOpts) *Analysis {
	a := &Analysis{
		Program: p,
		Graph:   NewGraph(hosts),
		Types:   make(map[ir.TypeID]*TypeInfo),
		Fields:  make(map[ir.FieldID]*FieldInfo),
	}

	// Phase 1 — log analysis. Process instances in FIFO order; for each,
	// update the runtime graph, then classify the logged variables whose
	// values ended up related to a node.
	for _, m := range matches {
		a.Graph.Observe(m.Values)
		for i, arg := range m.Pattern.Stmt.Args {
			if i >= len(m.Values) {
				break
			}
			v := m.Values[i]
			_, isNode := a.Graph.NodeValue(v)
			_, related := a.Graph.NodeOf(v)
			if !isNode && !related {
				continue
			}
			kind := ""
			if isNode {
				kind = "Node"
			} else {
				kind = kindOf(arg.Type)
			}
			if ir.IsBaseType(arg.Type) {
				// Base types are never generalized (§3.1.2): identify the
				// specific field via the log link and promote its
				// containing class to a meta-info type instead.
				if arg.Field != "" {
					if f := p.Field(arg.Field); f != nil {
						a.addField(f, kind, "logged base-type field")
						a.addType(f.Owner, kind, true, "container of logged base field "+string(arg.Field))
					}
				}
				continue
			}
			a.addType(arg.Type, kind, true, "logged")
		}
	}

	// Phase 2 — type-based static analysis (Definition 2), to a fixed
	// point: subtypes, collection element types, and containing classes
	// with constructor-only fields of meta-info type.
	changed := true
	for changed {
		changed = false
		// Subtype closure from every known meta type.
		if !opts.NoClosure {
			for _, ti := range a.snapshotTypes() {
				if ir.IsBaseType(ti.Type) {
					continue
				}
				for _, sub := range p.Subtypes(ti.Type) {
					if sub == ti.Type {
						continue
					}
					if a.addType(sub, ti.Kind, false, "subtype of "+string(ti.Type)) {
						changed = true
					}
				}
			}
		}
		// Field classification + containing-class rule. Every meta-info
		// type is a program class or a logged type, so only the program's
		// candidate fields can classify; the rest of the corpus is skipped.
		for _, f := range p.CandidateFields() {
			info := a.metaFieldReason(f)
			if info == nil {
				continue
			}
			if a.addFieldInfo(info) {
				changed = true
			}
			if f.SetOnlyInCtor && !opts.NoClosure {
				if a.addType(f.Owner, info.Kind, false,
					"contains ctor-set field "+f.Name+" of meta-info type") {
					changed = true
				}
			}
		}
	}
	return a
}

// metaFieldReason classifies a field against the current meta-type set;
// nil means the field is not meta-info (yet).
func (a *Analysis) metaFieldReason(f *ir.Field) *FieldInfo {
	if existing := a.Fields[f.ID()]; existing != nil {
		return existing
	}
	if ti := a.Types[f.Type]; ti != nil && !ir.IsBaseType(f.Type) {
		return &FieldInfo{Field: f, Kind: ti.Kind, Via: "typed " + string(f.Type)}
	}
	if ti := a.Types[f.ElemType]; ti != nil && !ir.IsBaseType(f.ElemType) {
		return &FieldInfo{Field: f, Kind: ti.Kind, Via: "collection of " + string(f.ElemType)}
	}
	if ti := a.Types[f.KeyType]; ti != nil && !ir.IsBaseType(f.KeyType) {
		return &FieldInfo{Field: f, Kind: ti.Kind, Via: "collection keyed by " + string(f.KeyType)}
	}
	return nil
}

func (a *Analysis) addType(t ir.TypeID, kind string, fromLog bool, via string) bool {
	if t == "" || ir.IsBaseType(t) {
		return false
	}
	if existing, ok := a.Types[t]; ok {
		// Upgrade to FromLog provenance if seen in logs later.
		if fromLog && !existing.FromLog {
			existing.FromLog = true
			existing.Via = via
		}
		return false
	}
	a.Types[t] = &TypeInfo{Type: t, FromLog: fromLog, Kind: kind, Via: via}
	return true
}

func (a *Analysis) addField(f *ir.Field, kind, via string) bool {
	return a.addFieldInfo(&FieldInfo{Field: f, Kind: kind, Via: via})
}

func (a *Analysis) addFieldInfo(fi *FieldInfo) bool {
	if _, ok := a.Fields[fi.Field.ID()]; ok {
		return false
	}
	a.Fields[fi.Field.ID()] = fi
	return true
}

func (a *Analysis) snapshotTypes() []*TypeInfo {
	out := make([]*TypeInfo, 0, len(a.Types))
	for _, ti := range a.Types {
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// IsMetaType reports whether t was inferred as a meta-info type.
func (a *Analysis) IsMetaType(t ir.TypeID) bool { return a.Types[t] != nil }

// IsMetaField reports whether f was inferred as a meta-info field.
func (a *Analysis) IsMetaField(f ir.FieldID) bool { return a.Fields[f] != nil }

// MetaTypes returns the inferred types sorted by name.
func (a *Analysis) MetaTypes() []*TypeInfo { return a.snapshotTypes() }

// MetaFields returns the inferred fields sorted by ID.
func (a *Analysis) MetaFields() []*FieldInfo {
	out := make([]*FieldInfo, 0, len(a.Fields))
	for _, fi := range a.Fields {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Field.ID() < out[j].Field.ID() })
	return out
}

// Kinds returns the meta-info kinds with their member types, sorted, in
// the shape of Table 2.
func (a *Analysis) Kinds() map[string][]*TypeInfo {
	out := make(map[string][]*TypeInfo)
	for _, ti := range a.snapshotTypes() {
		out[ti.Kind] = append(out[ti.Kind], ti)
	}
	return out
}

// MetaAccessPoints returns every field-access instruction (getfield,
// putfield, collection op) that touches a meta-info field — the
// "Meta-info Access Points" column of Table 10.
func (a *Analysis) MetaAccessPoints() []*ir.Instr {
	var out []*ir.Instr
	for _, ins := range a.Program.CandidateAccesses() {
		if a.IsMetaField(ins.Field) {
			out = append(out, ins)
		}
	}
	return out
}

// Census summarizes the meta-info side of Table 10.
type Census struct {
	Types        int
	Fields       int
	AccessPoints int
}

// Census computes the meta-info census.
func (a *Analysis) Census() Census {
	return Census{
		Types:        len(a.Types),
		Fields:       len(a.Fields),
		AccessPoints: len(a.MetaAccessPoints()),
	}
}
