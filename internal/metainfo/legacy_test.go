package metainfo_test

// The inference as it was before ir.Program carried an index: the field
// sweep, the access-point sweep and the subtype closure each walk every
// class of the program, background corpus included. Kept as the
// reference the indexed analysis must equal on every system.
//
// This lives in an external test package because driving the real
// systems pulls in probe→crashpoint, which imports metainfo.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
)

func legacySubtypes(p *ir.Program, t ir.TypeID) []ir.TypeID {
	out := []ir.TypeID{t}
	seen := map[ir.TypeID]bool{t: true}
	changed := true
	for changed {
		changed = false
		for _, c := range p.Classes() {
			if seen[c.Name] {
				continue
			}
			if seen[c.Super] {
				seen[c.Name] = true
				out = append(out, c.Name)
				changed = true
				continue
			}
			for _, i := range c.Interfaces {
				if seen[i] {
					seen[c.Name] = true
					out = append(out, c.Name)
					changed = true
					break
				}
			}
		}
	}
	return out
}

type legacyAnalysis struct{ *metainfo.Analysis }

func legacyInferWith(p *ir.Program, matches []*logparse.Match, hosts []string, opts metainfo.InferOpts) *metainfo.Analysis {
	a := legacyAnalysis{&metainfo.Analysis{
		Program: p,
		Graph:   metainfo.NewGraph(hosts),
		Types:   make(map[ir.TypeID]*metainfo.TypeInfo),
		Fields:  make(map[ir.FieldID]*metainfo.FieldInfo),
	}}
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
			kind := "Node"
			if !isNode {
				kind = metainfo.KindOfForTest(arg.Type)
			}
			if ir.IsBaseType(arg.Type) {
				if arg.Field != "" {
					if f := p.Field(arg.Field); f != nil {
						a.addField(&metainfo.FieldInfo{Field: f, Kind: kind, Via: "logged base-type field"})
						a.addType(f.Owner, kind, true, "container of logged base field "+string(arg.Field))
					}
				}
				continue
			}
			a.addType(arg.Type, kind, true, "logged")
		}
	}
	changed := true
	for changed {
		changed = false
		if !opts.NoClosure {
			for _, ti := range a.MetaTypes() {
				if ir.IsBaseType(ti.Type) {
					continue
				}
				for _, sub := range legacySubtypes(p, ti.Type) {
					if sub == ti.Type {
						continue
					}
					if a.addType(sub, ti.Kind, false, "subtype of "+string(ti.Type)) {
						changed = true
					}
				}
			}
		}
		for _, c := range p.Classes() {
			for _, f := range c.Fields {
				info := a.reason(f)
				if info == nil {
					continue
				}
				if a.addField(info) {
					changed = true
				}
				if f.SetOnlyInCtor && !opts.NoClosure {
					if a.addType(c.Name, info.Kind, false,
						"contains ctor-set field "+f.Name+" of meta-info type") {
						changed = true
					}
				}
			}
		}
	}
	return a.Analysis
}

func (a legacyAnalysis) reason(f *ir.Field) *metainfo.FieldInfo {
	if existing := a.Fields[f.ID()]; existing != nil {
		return existing
	}
	if ti := a.Types[f.Type]; ti != nil && !ir.IsBaseType(f.Type) {
		return &metainfo.FieldInfo{Field: f, Kind: ti.Kind, Via: "typed " + string(f.Type)}
	}
	if ti := a.Types[f.ElemType]; ti != nil && !ir.IsBaseType(f.ElemType) {
		return &metainfo.FieldInfo{Field: f, Kind: ti.Kind, Via: "collection of " + string(f.ElemType)}
	}
	if ti := a.Types[f.KeyType]; ti != nil && !ir.IsBaseType(f.KeyType) {
		return &metainfo.FieldInfo{Field: f, Kind: ti.Kind, Via: "collection keyed by " + string(f.KeyType)}
	}
	return nil
}

func (a legacyAnalysis) addType(t ir.TypeID, kind string, fromLog bool, via string) bool {
	if t == "" || ir.IsBaseType(t) {
		return false
	}
	if existing, ok := a.Types[t]; ok {
		if fromLog && !existing.FromLog {
			existing.FromLog = true
			existing.Via = via
		}
		return false
	}
	a.Types[t] = &metainfo.TypeInfo{Type: t, FromLog: fromLog, Kind: kind, Via: via}
	return true
}

func (a legacyAnalysis) addField(fi *metainfo.FieldInfo) bool {
	if _, ok := a.Fields[fi.Field.ID()]; ok {
		return false
	}
	a.Fields[fi.Field.ID()] = fi
	return true
}

func legacyMetaAccessPoints(a *metainfo.Analysis) []*ir.Instr {
	var out []*ir.Instr
	for _, c := range a.Program.Classes() {
		for _, m := range c.Methods {
			for _, ins := range m.Instrs {
				switch ins.Op {
				case ir.OpGetField, ir.OpPutField, ir.OpCollOp:
					if a.IsMetaField(ins.Field) {
						out = append(out, ins)
					}
				}
			}
		}
	}
	return out
}

// profiledMatches drives one fault-free run and parses its logs against
// the program's patterns, as core.AnalysisPhase does.
func profiledMatches(r cluster.Runner, p *ir.Program, seed int64, scale int) []*logparse.Match {
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, sim.Hour)
	return logparse.NewMatcher(logparse.ExtractPatterns(p)).ParseAll(logs.Records()).Matches
}

// requireSameAnalysis checks the indexed analysis of (p, matches) against
// the full-sweep reference: types and fields with their provenance, the
// access points in order, and the static result with its pruned points
// in order.
func requireSameAnalysis(t *testing.T, p *ir.Program, matches []*logparse.Match, hosts []string, opts metainfo.InferOpts) *metainfo.Analysis {
	t.Helper()
	got := metainfo.InferWith(p, matches, hosts, opts)
	want := legacyInferWith(p, matches, hosts, opts)
	if !reflect.DeepEqual(got.Types, want.Types) {
		t.Errorf("meta-info types differ from the full sweep: %d vs %d", len(got.Types), len(want.Types))
	}
	if !reflect.DeepEqual(got.Fields, want.Fields) {
		t.Errorf("meta-info fields differ from the full sweep: %d vs %d", len(got.Fields), len(want.Fields))
	}
	// The reference sweep runs over the reference analysis, so a field the
	// index lost shows here even where the two analyses agree.
	if gp, wp := got.MetaAccessPoints(), legacyMetaAccessPoints(want); !reflect.DeepEqual(gp, wp) {
		t.Errorf("meta-info access points differ from the full sweep: %d vs %d", len(gp), len(wp))
	}
	if gs, ws := crashpoint.Analyze(got), crashpoint.Analyze(want); !reflect.DeepEqual(gs, ws) {
		t.Errorf("static crash points differ: %d points/%d pruned vs %d/%d",
			len(gs.Points), len(gs.PrunedPoints), len(ws.Points), len(ws.PrunedPoints))
	}
	return got
}

func requireSameSubtypes(t *testing.T, p *ir.Program) {
	t.Helper()
	types := map[ir.TypeID]bool{}
	for _, c := range p.Classes() {
		types[c.Name] = true
		types[c.Super] = true
		for _, i := range c.Interfaces {
			types[i] = true
		}
	}
	for _, ins := range p.LogStmts() {
		for _, arg := range ins.Log.Args {
			types[arg.Type] = true
		}
	}
	delete(types, "")
	for typ := range types {
		if got, want := p.Subtypes(typ), legacySubtypes(p, typ); !reflect.DeepEqual(got, want) {
			t.Errorf("Subtypes(%s) = %v, full sweep %v", typ, got, want)
		}
	}
}

func TestIndexedAnalysisMatchesFullSweep(t *testing.T) {
	for _, r := range append(all.Runners(), all.Extensions()...) {
		p := r.Program()
		requireSameSubtypes(t, p)
		for _, seed := range []int64{11, 1009} {
			for _, scale := range []int{1, 4, 32} {
				matches := profiledMatches(r, p, seed, scale)
				for _, opts := range []metainfo.InferOpts{{}, {NoClosure: true}} {
					t.Run(fmt.Sprintf("%s/seed=%d/scale=%d/noclosure=%v", r.Name(), seed, scale, opts.NoClosure), func(t *testing.T) {
						a := requireSameAnalysis(t, p, matches, r.Hosts(), opts)
						if len(a.Types) == 0 || len(a.Fields) == 0 {
							t.Errorf("empty analysis: %d types, %d fields", len(a.Types), len(a.Fields))
						}
					})
				}
			}
		}
	}
}

// miniProgram is a small model with each route into the meta-info set: a
// logged id type with a subtype, fields typed, keyed and filled by it, a
// ctor-set field promoting its class, and a base-typed field reached only
// through its LogArg.Field link. With listLogged, the log also prints a
// java.util.ArrayList-typed variable: a logged type that is no program
// class, shared with the background corpus's list fields.
func miniProgram(listLogged bool) *ir.Program {
	p := ir.NewProgram("mini")
	p.AddClass(&ir.Class{Name: "mini.NodeId"})
	p.AddClass(&ir.Class{Name: "mini.NodeIdPBImpl", Super: "mini.NodeId"})
	p.AddClass(&ir.Class{
		Name:   "mini.SchedulerNode",
		Fields: []*ir.Field{{Name: "nodeId", Type: "mini.NodeId", SetOnlyInCtor: true}},
		Methods: []*ir.Method{{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
			{Op: ir.OpPutField, Field: "mini.SchedulerNode.nodeId"},
			{Op: ir.OpReturn},
		}}},
	})
	args := []ir.LogArg{
		{Name: "nodeId", Type: "mini.NodeId"},
		{Name: "host", Type: "java.lang.String", Field: "mini.Tracker.lastHost"},
	}
	segs := []string{"Registered node ", " from host ", ""}
	if listLogged {
		args = append(args, ir.LogArg{Name: "peers", Type: "java.util.ArrayList"})
		segs = []string{"Registered node ", " from host ", " with peers ", ""}
	}
	p.AddClass(&ir.Class{
		Name: "mini.Tracker",
		Fields: []*ir.Field{
			{Name: "nodes", Type: "java.util.HashMap", KeyType: "mini.NodeId", ElemType: "mini.SchedulerNode"},
			{Name: "live", Type: "java.util.ArrayList", ElemType: "mini.NodeIdPBImpl"},
			{Name: "lastHost", Type: "java.lang.String"},
			{Name: "label", Type: "java.lang.String"},
		},
		Methods: []*ir.Method{{Name: "register", Public: true, Instrs: []*ir.Instr{
			{Op: ir.OpCollOp, Field: "mini.Tracker.nodes", CollMethod: "put"},
			{Op: ir.OpPutField, Field: "mini.Tracker.lastHost"},
			{Op: ir.OpGetField, Field: "mini.Tracker.label", Use: ir.UseLogOnly},
			{Op: ir.OpCollOp, Field: "mini.Tracker.live", CollMethod: "add"},
			{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info", Segments: segs, Args: args}},
			{Op: ir.OpGetField, Field: "mini.Tracker.lastHost", Use: ir.UseSanityChecked},
			{Op: ir.OpReturn},
		}}},
	})
	return p.Build()
}

var miniHosts = []string{"node1", "node2"}

func miniMatches(p *ir.Program, listLogged bool) []*logparse.Match {
	text := "Registered node node1:7001 from host node1"
	if listLogged {
		text += " with peers [node2:7001]"
	}
	return logparse.NewMatcher(logparse.ExtractPatterns(p)).ParseAll([]dslog.Record{{Text: text}}).Matches
}

// A logged type that is no program class still makes candidates of the
// fields it types, in the model and in the corpus alike.
func TestCandidateFilterKeepsLoggedNonClassType(t *testing.T) {
	p := miniProgram(true)
	ir.SynthesizeBackground(p, 100, 11)
	requireSameSubtypes(t, p)
	a := requireSameAnalysis(t, p, miniMatches(p, true), miniHosts, metainfo.InferOpts{})
	if !a.IsMetaType("java.util.ArrayList") {
		t.Fatal("the logged java.util.ArrayList is not a meta-info type")
	}
	background := 0
	for id := range a.Fields {
		if f := a.Fields[id].Field; f.Type == "java.util.ArrayList" && f.Owner != "mini.Tracker" {
			background++
		}
	}
	if background == 0 {
		t.Error("no background ArrayList field classified: the candidate filter dropped a logged non-class type")
	}
	if !a.IsMetaField("mini.Tracker.lastHost") {
		t.Error("the LogArg.Field-linked base-typed field is not meta-info")
	}
}

// analysisDigest renders what R4 compares, free of the pointers that
// differ between two builds of one model.
func analysisDigest(a *metainfo.Analysis) []string {
	var out []string
	for _, ti := range a.MetaTypes() {
		out = append(out, fmt.Sprintf("type %+v", *ti))
	}
	for _, fi := range a.MetaFields() {
		out = append(out, fmt.Sprintf("field %s %+v kind=%s via=%s", fi.Field.ID(), *fi.Field, fi.Kind, fi.Via))
	}
	static := crashpoint.Analyze(a)
	out = append(out, fmt.Sprintf("static candidates=%d pruned=%+v", static.Candidates, static.Pruned))
	for _, sp := range static.Points {
		out = append(out, fmt.Sprintf("point %+v", sp))
	}
	for _, pp := range static.PrunedPoints {
		out = append(out, fmt.Sprintf("pruned %+v", pp))
	}
	return out
}

// Relation R4 of ROADMAP item 13, background invariance: the size of the
// synthesised corpus changes no meta-info type, field or static crash
// point. It is why skipping the corpus is safe.
func TestBackgroundInvariance(t *testing.T) {
	toy := &toysys.Runner{}
	cases := []struct {
		name    string
		program func() *ir.Program
		matches func(p *ir.Program) []*logparse.Match
		hosts   []string
	}{
		{"toysys", toy.Program, func(p *ir.Program) []*logparse.Match { return profiledMatches(toy, p, 11, 4) }, toy.Hosts()},
		{"mini", func() *ir.Program { return miniProgram(false) }, func(p *ir.Program) []*logparse.Match { return miniMatches(p, false) }, miniHosts},
	}
	for _, tc := range cases {
		var base []string
		for _, n := range []int{0, 80, 400} {
			p := tc.program()
			ir.SynthesizeBackground(p, n, 0xB6)
			if got := len(p.Classes()) - len(tc.program().Classes()); got != n {
				t.Fatalf("%s: %d background classes, want %d", tc.name, got, n)
			}
			a := requireSameAnalysis(t, p, tc.matches(p), tc.hosts, metainfo.InferOpts{})
			digest := analysisDigest(a)
			if n == 0 {
				base = digest
				if len(a.Types) == 0 || len(a.Fields) == 0 {
					t.Fatalf("%s: empty analysis", tc.name)
				}
				continue
			}
			if !reflect.DeepEqual(digest, base) {
				t.Errorf("%s: %d background classes change the analysis:\n%v\nwant\n%v", tc.name, n, digest, base)
			}
		}
	}
}
