package ir

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// tinyProgram builds a small, valid program exercising the main IR
// features: hierarchy, collections, logging, invokes and IO.
func tinyProgram() *Program {
	p := NewProgram("tiny")
	p.AddClass(&Class{
		Name: "t.NodeId",
		Methods: []*Method{
			{Name: "toString", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
		},
	})
	p.AddClass(&Class{Name: "t.NodeIdPBImpl", Super: "t.NodeId"})
	p.AddClass(&Class{
		Name: "t.Scheduler",
		Fields: []*Field{
			{Name: "nodes", Type: "java.util.HashMap", KeyType: "t.NodeId", ElemType: "t.SchedulerNode"},
			{Name: "name", Type: "java.lang.String"},
		},
		Methods: []*Method{
			{
				Name:   "getScheNode",
				Public: true,
				Instrs: []*Instr{
					{Op: OpCollOp, Field: "t.Scheduler.nodes", CollMethod: "get", Use: UseReturnedOnly},
					{Op: OpReturn},
				},
			},
			{
				Name:   "completeContainer",
				Public: true,
				Instrs: []*Instr{
					{Op: OpInvoke, Callee: "t.Scheduler.getScheNode"},
					{Op: OpGetField, Field: "t.Scheduler.name", Use: UseLogOnly},
					{Op: OpLog, Log: &LogStmt{
						Level:    "info",
						Segments: []string{"Completed container ", " on node ", ""},
						Args: []LogArg{
							{Name: "containerId", Type: "java.lang.String"},
							{Name: "nodeId", Type: "t.NodeId"},
						},
					}},
					{Op: OpReturn},
				},
			},
		},
	})
	p.AddClass(&Class{
		Name:       "t.LogStream",
		Interfaces: []TypeID{"java.io.Closeable"},
		Methods: []*Method{
			{Name: "readChunk", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "writeChunk", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "close", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "seek", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "helper", Public: false, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "copyTo", Public: true, Instrs: []*Instr{
				{Op: OpInvoke, Callee: "t.LogStream.readChunk"},
				{Op: OpInvoke, Callee: "t.LogStream.writeChunk"},
				{Op: OpInvoke, Callee: "t.LogStream.seek"},
				{Op: OpReturn},
			}},
		},
	})
	return p.Build()
}

func TestBuildAssignsIDs(t *testing.T) {
	p := tinyProgram()
	m := p.Method("t.Scheduler.getScheNode")
	if m == nil {
		t.Fatal("method not indexed")
	}
	if m.Instrs[0].ID != "t.Scheduler.getScheNode#0" {
		t.Errorf("point id = %s", m.Instrs[0].ID)
	}
	f := p.Field("t.Scheduler.nodes")
	if f == nil || f.Owner != "t.Scheduler" || !f.IsCollection() {
		t.Fatalf("field index wrong: %+v", f)
	}
}

func TestSplitPoint(t *testing.T) {
	mid, idx, ok := SplitPoint("a.B.c#12")
	if !ok || mid != "a.B.c" || idx != 12 {
		t.Errorf("SplitPoint = %v %v %v", mid, idx, ok)
	}
	if _, _, ok := SplitPoint("nohash"); ok {
		t.Error("SplitPoint accepted malformed id")
	}
}

func TestInstrLookup(t *testing.T) {
	p := tinyProgram()
	ins := p.Instr("t.Scheduler.completeContainer#0")
	if ins == nil || ins.Op != OpInvoke {
		t.Fatalf("Instr lookup = %+v", ins)
	}
	if p.Instr("t.Missing.m#0") != nil {
		t.Error("lookup of missing instr succeeded")
	}
}

func TestCallers(t *testing.T) {
	p := tinyProgram()
	callers := p.Callers("t.Scheduler.getScheNode")
	if len(callers) != 1 || callers[0].ID != "t.Scheduler.completeContainer#0" {
		t.Errorf("callers = %+v", callers)
	}
}

func TestSubtypes(t *testing.T) {
	p := tinyProgram()
	subs := p.Subtypes("t.NodeId")
	if len(subs) != 2 {
		t.Fatalf("subtypes = %v", subs)
	}
	found := false
	for _, s := range subs {
		if s == "t.NodeIdPBImpl" {
			found = true
		}
	}
	if !found {
		t.Error("PBImpl subtype missing")
	}
}

func TestSubtypesViaInterface(t *testing.T) {
	p := NewProgram("x")
	p.AddClass(&Class{Name: "x.I"})
	p.AddClass(&Class{Name: "x.Impl", Interfaces: []TypeID{"x.I"}})
	p.AddClass(&Class{Name: "x.Sub", Super: "x.Impl"})
	p.Build()
	subs := p.Subtypes("x.I")
	if len(subs) != 3 {
		t.Errorf("subtypes = %v, want I, Impl, Sub", subs)
	}
}

// The subtype table keeps the order of a registration-order sweep to a
// fixed point: a class registered before its parent is found a pass
// later, after the classes that follow their parents.
func TestSubtypesParentRegisteredLater(t *testing.T) {
	p := NewProgram("x")
	p.AddClass(&Class{Name: "x.C", Super: "x.B"})
	p.AddClass(&Class{Name: "x.B", Super: "x.A"})
	p.AddClass(&Class{Name: "x.A"})
	p.AddClass(&Class{Name: "x.D", Interfaces: []TypeID{"x.Other", "x.A"}})
	p.AddClass(&Class{Name: "x.Unrelated"})
	p.Build()
	if got, want := p.Subtypes("x.A"), []TypeID{"x.A", "x.B", "x.D", "x.C"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Subtypes(x.A) = %v, want %v", got, want)
	}
	if got, want := p.Subtypes("x.Unrelated"), []TypeID{"x.Unrelated"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Subtypes(x.Unrelated) = %v, want %v", got, want)
	}
	if got, want := p.Subtypes("not.Modeled"), []TypeID{"not.Modeled"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Subtypes(not.Modeled) = %v, want %v", got, want)
	}
}

// Candidate fields are those typed by a program class or a logged
// non-base type, or named by a LogArg.Field link; base-typed fields that
// nothing links stay out, whatever the logs print.
func TestCandidateIndex(t *testing.T) {
	p := NewProgram("c")
	p.AddClass(&Class{Name: "c.Id"})
	p.AddClass(&Class{
		Name: "c.Holder",
		Fields: []*Field{
			{Name: "id", Type: "c.Id"},
			{Name: "byId", Type: "java.util.HashMap", KeyType: "c.Id", ElemType: "java.lang.String"},
			{Name: "list", Type: "java.util.ArrayList", ElemType: "java.lang.Long"},
			{Name: "host", Type: "java.lang.String"},
			{Name: "note", Type: "java.lang.String"},
			{Name: "flag", Type: "java.lang.Boolean"},
		},
		Methods: []*Method{{Name: "m", Instrs: []*Instr{
			{Op: OpGetField, Field: "c.Holder.note"},
			{Op: OpPutField, Field: "c.Holder.host"},
			{Op: OpCollOp, Field: "c.Holder.list", CollMethod: "add"},
			{Op: OpGetField, Field: "c.Holder.flag"},
			{Op: OpLog, Log: &LogStmt{Level: "info", Segments: []string{"host ", " list ", " note ", ""}, Args: []LogArg{
				{Name: "host", Type: "java.lang.String", Field: "c.Holder.host"},
				{Name: "list", Type: "java.util.ArrayList"},
				{Name: "note", Type: "java.lang.String"},
			}}},
			{Op: OpGetField, Field: "c.Holder.id"},
			{Op: OpReturn},
		}}},
	})
	p.Build()
	var fields []string
	for _, f := range p.CandidateFields() {
		fields = append(fields, f.Name)
	}
	if want := []string{"id", "byId", "list", "host"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("candidate fields = %v, want %v", fields, want)
	}
	var accesses []PointID
	for _, ins := range p.CandidateAccesses() {
		accesses = append(accesses, ins.ID)
	}
	if want := []PointID{"c.Holder.m#1", "c.Holder.m#2", "c.Holder.m#5"}; !reflect.DeepEqual(accesses, want) {
		t.Errorf("candidate accesses = %v, want %v", accesses, want)
	}
}

func TestDerivedBuildsOncePerKey(t *testing.T) {
	p := tinyProgram()
	type key struct{}
	var mu sync.Mutex
	builds := 0
	build := func() any {
		mu.Lock()
		defer mu.Unlock()
		builds++
		return new(int)
	}
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = p.Derived(key{}, build)
		}(i)
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatal("Derived returned different values for one key")
		}
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
	// Extending the program rebuilds it, and what was derived goes with
	// the old build.
	p.AddClass(&Class{Name: "t.Late"})
	p.Build()
	if p.Derived(key{}, build) == got[0] || builds != 2 {
		t.Errorf("Derived survived a rebuild (builds = %d)", builds)
	}
}

func TestLogStmtPattern(t *testing.T) {
	p := tinyProgram()
	logs := p.LogStmts()
	if len(logs) != 1 {
		t.Fatalf("log stmts = %d", len(logs))
	}
	want := "Completed container (.*) on node (.*)"
	if got := logs[0].Log.Pattern(); got != want {
		t.Errorf("pattern = %q, want %q", got, want)
	}
}

func TestCensus(t *testing.T) {
	p := tinyProgram()
	c := p.Census()
	if c.Types != 4 {
		t.Errorf("types = %d, want 4", c.Types)
	}
	if c.Fields != 2 {
		t.Errorf("fields = %d, want 2", c.Fields)
	}
	// Access points: 1 collop + 1 getfield.
	if c.AccessPoints != 2 {
		t.Errorf("access points = %d, want 2", c.AccessPoints)
	}
}

func TestIOCensus(t *testing.T) {
	p := tinyProgram()
	c := p.IOCensus()
	if c.IOClasses != 1 {
		t.Errorf("IO classes = %d, want 1", c.IOClasses)
	}
	// readChunk, writeChunk, close are IO methods; seek and helper are not.
	if c.IOMethods != 3 {
		t.Errorf("IO methods = %d, want 3", c.IOMethods)
	}
	// copyTo calls readChunk, writeChunk (IO) and seek (not IO).
	if c.StaticIOs != 2 {
		t.Errorf("static IO points = %d, want 2", c.StaticIOs)
	}
}

func TestValidateCleanModel(t *testing.T) {
	if errs := tinyProgram().Validate(); len(errs) != 0 {
		t.Errorf("unexpected validation errors: %v", errs)
	}
}

func TestValidateCatchesBrokenModel(t *testing.T) {
	p := NewProgram("bad")
	p.AddClass(&Class{
		Name:   "b.C",
		Fields: []*Field{{Name: "s", Type: "java.lang.String"}},
		Methods: []*Method{{Name: "m", Instrs: []*Instr{
			{Op: OpGetField, Field: "b.C.missing"},
			{Op: OpCollOp, Field: "b.C.s", CollMethod: "get"},
			{Op: OpInvoke, Callee: "b.C.nothere"},
			{Op: OpLog, Log: &LogStmt{Segments: []string{"only one"}, Args: []LogArg{{Name: "x"}}}},
		}}},
	})
	errs := p.Validate()
	if len(errs) != 4 {
		t.Fatalf("validation errors = %d (%v), want 4", len(errs), errs)
	}
}

func TestClassifyCollMethod(t *testing.T) {
	cases := map[string]CollAccess{
		"get":         CollRead,
		"getOrDef":    CollRead,
		"peek":        CollRead,
		"poll":        CollRead,
		"values":      CollRead,
		"isEmpty":     CollRead,
		"containsKey": CollRead,
		"put":         CollWrite,
		"putIfAbsent": CollWrite,
		"add":         CollWrite,
		"remove":      CollWrite,
		"clear":       CollWrite,
		"offer":       CollWrite,
		"push":        CollWrite,
		"copyInto":    CollWrite,
		"iterator":    CollNone,
	}
	for name, want := range cases {
		if got := ClassifyCollMethod(name); got != want {
			t.Errorf("ClassifyCollMethod(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestClassifyCollMethodProperty(t *testing.T) {
	// Property: every Table 3 keyword classifies as itself regardless of
	// suffix and case of the suffix.
	f := func(suffix string) bool {
		suffix = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
				return r
			}
			return -1
		}, suffix)
		for _, kw := range CollReadKeywords {
			got := ClassifyCollMethod(kw + suffix)
			if got == CollNone {
				return false
			}
		}
		for _, kw := range CollWriteKeywords {
			if ClassifyCollMethod(kw+suffix) != CollWrite {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsBaseType(t *testing.T) {
	if !IsBaseType("java.lang.String") || IsBaseType("t.NodeId") {
		t.Error("base type classification wrong")
	}
}

func TestSynthesizeBackground(t *testing.T) {
	p := NewProgram("synth")
	SynthesizeBackground(p, 50, 7)
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("background corpus invalid: %v", errs)
	}
	c := p.Census()
	if c.Types != 50 {
		t.Errorf("types = %d, want 50", c.Types)
	}
	if c.Fields == 0 || c.AccessPoints == 0 {
		t.Error("background corpus empty")
	}
	io := p.IOCensus()
	if io.IOClasses == 0 || io.IOMethods == 0 || io.StaticIOs == 0 {
		t.Errorf("expected IO classes in background corpus: %+v", io)
	}
}

func TestSynthesizeBackgroundDeterministic(t *testing.T) {
	a := NewProgram("s")
	SynthesizeBackground(a, 20, 3)
	b := NewProgram("s")
	SynthesizeBackground(b, 20, 3)
	ca, cb := a.Census(), b.Census()
	if ca != cb {
		t.Errorf("census differs across runs: %+v vs %+v", ca, cb)
	}
}

func TestDuplicateClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := NewProgram("d")
	p.AddClass(&Class{Name: "d.C"})
	p.AddClass(&Class{Name: "d.C"})
}

func TestOpcodeAndUseStrings(t *testing.T) {
	if OpGetField.String() != "getfield" || OpCollOp.String() != "collop" {
		t.Error("opcode names wrong")
	}
	if UseSanityChecked.String() != "sanity-checked" {
		t.Error("use kind names wrong")
	}
	if CollRead.String() != "read" || CollWrite.String() != "write" || CollNone.String() != "none" {
		t.Error("coll access names wrong")
	}
}
