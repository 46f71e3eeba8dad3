// Package ir defines the intermediate representation of the systems under
// test. It plays the role Java bytecode + WALA play in the paper: the
// type-based static analysis (§3.1.2), the crash-point optimizations and
// the IO-point census (§4.2.2) all operate on this IR.
//
// Each simulated system (internal/systems/...) ships a Program describing
// its own code: classes with fields (including collection fields), methods
// with instruction lists (field accesses, collection operations, calls,
// logging statements, returns), and enough dataflow annotation on reads
// (how the read value is used) to drive the paper's three optimizations.
// The executable behaviour of the system and its IR model are kept in sync
// by construction: every meta-info access site in the Go code carries the
// PointID of the corresponding IR instruction via the probe layer.
package ir

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// TypeID is a fully-qualified type name, e.g.
// "yarn.api.records.NodeId" or "java.lang.String".
type TypeID string

// FieldID names a field as "Class.field".
type FieldID string

// MethodID names a method as "Class.method".
type MethodID string

// PointID names an instruction as "Class.method#index".
type PointID string

// Base types the analysis refuses to generalize from (§3.1.2): marking
// every String in the program as meta-info would flood the analysis with
// irrelevant variables. Fields of these types are identified as meta-info
// individually via log analysis, and their containing classes become
// meta-info types instead.
var BaseTypes = map[TypeID]bool{
	"java.lang.Integer": true,
	"java.lang.Long":    true,
	"java.lang.String":  true,
	"java.lang.Enum":    true,
	"byte[]":            true,
	"java.io.File":      true,
}

// IsBaseType reports whether t is one of the guarded base types.
func IsBaseType(t TypeID) bool { return BaseTypes[t] }

// Class describes one type in the system under test.
type Class struct {
	Name       TypeID
	Super      TypeID   // "" if none modeled
	Interfaces []TypeID // implemented interfaces, e.g. "java.io.Closeable"
	Fields     []*Field
	Methods    []*Method
	// Collection marks container classes (HashMap, ArrayList, ...).
	// Fields of collection classes carry element/key types on the Field.
	Collection bool
}

// ImplementsCloseable reports whether the class models an IO class
// (implements java.io.Closeable), the IO-class criterion of §4.2.2.
func (c *Class) ImplementsCloseable() bool {
	for _, i := range c.Interfaces {
		if i == "java.io.Closeable" {
			return true
		}
	}
	return false
}

// Field describes an instance field.
type Field struct {
	Name string
	// Owner is filled in by Program.Build.
	Owner TypeID
	// Type is the declared type; for collection fields this is the
	// container class (e.g. "java.util.HashMap").
	Type TypeID
	// KeyType/ElemType describe collection contents: for maps both are
	// set, for lists/sets only ElemType. Zero for scalar fields.
	KeyType  TypeID
	ElemType TypeID
	// SetOnlyInCtor marks fields assigned exclusively in constructors of
	// the owning class; such fields trigger the "Constructor" pruning
	// optimization and the containing-class rule of Definition 2.
	SetOnlyInCtor bool
}

// ID returns the field's global identifier.
func (f *Field) ID() FieldID { return FieldID(string(f.Owner) + "." + f.Name) }

// IsCollection reports whether the field holds a container.
func (f *Field) IsCollection() bool { return f.ElemType != "" || f.KeyType != "" }

// UseKind classifies how the value of a read instruction is used,
// providing the dataflow facts the paper computes with WALA.
type UseKind int

// Use kinds for read instructions.
const (
	UseNormal        UseKind = iota // value flows into real computation
	UseUnused                       // value never used
	UseLogOnly                      // only used in logging statements
	UseStringOnly                   // only used in toString/hashCode/equals
	UseSanityChecked                // checked in an if-condition before use
	UseReturnedOnly                 // only flows into return statements
)

var useNames = [...]string{"normal", "unused", "log-only", "string-only", "sanity-checked", "returned-only"}

func (u UseKind) String() string {
	if int(u) < len(useNames) {
		return useNames[u]
	}
	return fmt.Sprintf("UseKind(%d)", int(u))
}

// Opcode is the instruction kind.
type Opcode int

// Instruction opcodes.
const (
	OpGetField Opcode = iota // read a scalar field
	OpPutField               // write a scalar field
	OpCollOp                 // invoke a method on a collection field
	OpInvoke                 // call another modeled method
	OpLog                    // logging statement
	OpReturn                 // return from the method
	OpOther                  // any other instruction (census filler)
)

var opNames = [...]string{"getfield", "putfield", "collop", "invoke", "log", "return", "other"}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Instr is one instruction in a method body.
type Instr struct {
	// ID is filled in by Program.Build as "Class.method#index".
	ID   PointID
	Op   Opcode
	Line int

	// Field is set for OpGetField/OpPutField/OpCollOp.
	Field FieldID
	// CollMethod is the invoked container method name for OpCollOp
	// ("get", "put", "add", ...), classified via the Table 3 keywords.
	CollMethod string
	// Use annotates reads (OpGetField and read-classified OpCollOp).
	Use UseKind
	// InCtor marks instructions inside a constructor of the owning class;
	// writes in constructors do not disqualify SetOnlyInCtor.
	InCtor bool

	// Callee is set for OpInvoke.
	Callee MethodID

	// Log is set for OpLog.
	Log *LogStmt
}

// LogStmt is a static logging statement: interleaved constant segments and
// logged variables. len(Segments) == len(Args)+1; rendering a statement is
// Segments[0] + value(Args[0]) + Segments[1] + ...
type LogStmt struct {
	Level    string // "fatal".."trace", matched by interface name (§3.1.1)
	Segments []string
	Args     []LogArg
}

// LogArg is one logged variable.
type LogArg struct {
	Name string
	Type TypeID
	// Field optionally links the logged variable to the instance field it
	// was read from; base-typed meta-info fields are identified through
	// this link (§3.1.2).
	Field FieldID
}

// Pattern renders the log pattern with (.*) in place of each variable,
// as in Fig. 5(b).
func (s *LogStmt) Pattern() string {
	var b strings.Builder
	for i, seg := range s.Segments {
		b.WriteString(seg)
		if i < len(s.Args) {
			b.WriteString("(.*)")
		}
	}
	return b.String()
}

// Method is one method of a class.
type Method struct {
	Name string
	// Owner is filled in by Program.Build.
	Owner TypeID
	// Ctor marks constructors.
	Ctor bool
	// Public marks externally callable methods.
	Public bool
	// IO marks methods counted as IO methods by the §4.2.2 census; it is
	// derived (Closeable owner + read/write/flush/close prefix).
	Instrs []*Instr
}

// ID returns the method's global identifier.
func (m *Method) ID() MethodID { return MethodID(string(m.Owner) + "." + m.Name) }

// IOPrefixes are the method-name prefixes that make a public method of an
// IO class an IO method (§4.2.2).
var IOPrefixes = []string{"read", "write", "flush", "close"}

// IsIOMethod reports whether the method is an IO method of an IO class.
func (m *Method) IsIOMethod(p *Program) bool {
	c := p.Class(m.Owner)
	if c == nil || !c.ImplementsCloseable() || !m.Public {
		return false
	}
	for _, pre := range IOPrefixes {
		if strings.HasPrefix(m.Name, pre) {
			return true
		}
	}
	return false
}

// Program is the IR of one system under test. Once built it is read-only:
// every query below only reads, so one program serves any number of
// concurrent analyses (internal/systems/all shares one per system).
type Program struct {
	System  string
	classes map[TypeID]*Class
	order   []TypeID
	methods map[MethodID]*Method
	fields  map[FieldID]*Field
	// callers maps a method to the invoke instructions that call it.
	callers map[MethodID][]*Instr

	// What the analysis would otherwise re-derive by sweeping every class
	// on every call; filled in by Build.
	logStmts []*Instr
	// subtypes maps every type named as a Super or an interface to its
	// modeled transitive subtypes, in the order Subtypes reports them.
	subtypes map[TypeID][]TypeID
	// candidates are the fields that can ever be classified as meta-info,
	// in registration order, and candidateAccesses the access instructions
	// on them, in program order; see CandidateFields.
	candidates        []*Field
	candidateAccesses []*Instr

	// derived holds what other packages computed from the built program.
	derived sync.Map

	built bool
}

// derivedEntry is one Derived value, built at most once.
type derivedEntry struct {
	once sync.Once
	v    any
}

// NewProgram returns an empty program for the named system.
func NewProgram(system string) *Program {
	return &Program{
		System:  system,
		classes: make(map[TypeID]*Class),
		methods: make(map[MethodID]*Method),
		fields:  make(map[FieldID]*Field),
		callers: make(map[MethodID][]*Instr),
	}
}

// AddClass registers a class. It panics on duplicates (model bugs should
// fail loudly at construction time).
func (p *Program) AddClass(c *Class) *Class {
	if _, dup := p.classes[c.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate class %s", c.Name))
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c.Name)
	p.built = false
	return c
}

// Build assigns owners and point IDs and indexes methods, fields, call
// sites, logging statements, the subtype table and the meta-info
// candidates. It must be called after all classes are added and before
// any query; it is idempotent.
func (p *Program) Build() *Program {
	if p.built {
		return p
	}
	p.methods = make(map[MethodID]*Method)
	p.fields = make(map[FieldID]*Field)
	p.callers = make(map[MethodID][]*Instr)
	p.logStmts = nil
	p.derived = sync.Map{}
	// What can make a field meta-info: a declared, element or key type
	// that is a program class or a logged non-base type (the only types
	// Definition 2 ever marks), or a LogArg.Field link.
	namedType := make(map[TypeID]bool, len(p.order))
	linked := make(map[FieldID]bool)
	for _, name := range p.order {
		c := p.classes[name]
		namedType[name] = true
		for _, f := range c.Fields {
			f.Owner = c.Name
			if _, dup := p.fields[f.ID()]; dup {
				panic(fmt.Sprintf("ir: duplicate field %s", f.ID()))
			}
			p.fields[f.ID()] = f
		}
		for _, m := range c.Methods {
			m.Owner = c.Name
			if _, dup := p.methods[m.ID()]; dup {
				panic(fmt.Sprintf("ir: duplicate method %s", m.ID()))
			}
			p.methods[m.ID()] = m
			for i, ins := range m.Instrs {
				ins.ID = PointID(fmt.Sprintf("%s#%d", m.ID(), i))
				if m.Ctor {
					ins.InCtor = true
				}
				switch {
				case ins.Op == OpInvoke:
					p.callers[ins.Callee] = append(p.callers[ins.Callee], ins)
				case ins.Op == OpLog:
					p.logStmts = append(p.logStmts, ins)
					if ins.Log == nil {
						continue // reported by Validate
					}
					for _, arg := range ins.Log.Args {
						if arg.Type != "" && !IsBaseType(arg.Type) {
							namedType[arg.Type] = true
						}
						if arg.Field != "" {
							linked[arg.Field] = true
						}
					}
				}
			}
		}
	}
	p.indexSubtypes()
	p.indexCandidates(namedType, linked)
	p.built = true
	return p
}

// indexSubtypes fills the subtype table. Only classes that name a parent
// can be anyone's subtype, so the closure sweeps those alone.
func (p *Program) indexSubtypes() {
	var derived []*Class
	for _, name := range p.order {
		if c := p.classes[name]; c.Super != "" || len(c.Interfaces) > 0 {
			derived = append(derived, c)
		}
	}
	p.subtypes = make(map[TypeID][]TypeID)
	for _, c := range derived {
		for _, parent := range append([]TypeID{c.Super}, c.Interfaces...) {
			if _, done := p.subtypes[parent]; parent == "" || done {
				continue
			}
			// Sweep to a fixed point in registration order, so a class
			// registered before its parent is still found (a pass later).
			var subs []TypeID
			seen := map[TypeID]bool{parent: true}
			for changed := true; changed; {
				changed = false
				for _, d := range derived {
					if seen[d.Name] || !(seen[d.Super] || anySeen(seen, d.Interfaces)) {
						continue
					}
					seen[d.Name] = true
					subs = append(subs, d.Name)
					changed = true
				}
			}
			p.subtypes[parent] = subs
		}
	}
}

func anySeen(seen map[TypeID]bool, ts []TypeID) bool {
	for _, t := range ts {
		if seen[t] {
			return true
		}
	}
	return false
}

// indexCandidates fills candidates and candidateAccesses.
func (p *Program) indexCandidates(namedType map[TypeID]bool, linked map[FieldID]bool) {
	p.candidates, p.candidateAccesses = nil, nil
	candidate := make(map[FieldID]bool)
	for _, name := range p.order {
		for _, f := range p.classes[name].Fields {
			if namedType[f.Type] || namedType[f.ElemType] || namedType[f.KeyType] || linked[f.ID()] {
				candidate[f.ID()] = true
				p.candidates = append(p.candidates, f)
			}
		}
	}
	for _, name := range p.order {
		for _, m := range p.classes[name].Methods {
			for _, ins := range m.Instrs {
				switch ins.Op {
				case OpGetField, OpPutField, OpCollOp:
					if candidate[ins.Field] {
						p.candidateAccesses = append(p.candidateAccesses, ins)
					}
				}
			}
		}
	}
}

// Class returns the class named t, or nil.
func (p *Program) Class(t TypeID) *Class { return p.classes[t] }

// Classes returns all classes in registration order.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.classes[n])
	}
	return out
}

// Method returns the method with the given ID, or nil.
func (p *Program) Method(id MethodID) *Method { return p.methods[id] }

// Field returns the field with the given ID, or nil.
func (p *Program) Field(id FieldID) *Field { return p.fields[id] }

// Callers returns the invoke instructions calling method id.
func (p *Program) Callers(id MethodID) []*Instr { return p.callers[id] }

// Instr returns the instruction with the given point ID, or nil.
func (p *Program) Instr(id PointID) *Instr {
	mid, _, ok := SplitPoint(id)
	if !ok {
		return nil
	}
	m := p.methods[mid]
	if m == nil {
		return nil
	}
	for _, ins := range m.Instrs {
		if ins.ID == id {
			return ins
		}
	}
	return nil
}

// SplitPoint decomposes "Class.method#3" into its method and index.
func SplitPoint(id PointID) (MethodID, int, bool) {
	s := string(id)
	i := strings.LastIndexByte(s, '#')
	if i < 0 {
		return "", 0, false
	}
	var idx int
	if _, err := fmt.Sscanf(s[i+1:], "%d", &idx); err != nil {
		return "", 0, false
	}
	return MethodID(s[:i]), idx, true
}

// Subtypes returns t and every modeled transitive subtype of t (classes
// whose Super chain or interface list reaches t).
func (p *Program) Subtypes(t TypeID) []TypeID {
	return append([]TypeID{t}, p.subtypes[t]...)
}

// LogStmts returns every logging statement in the program, with its
// containing instruction, in deterministic order.
func (p *Program) LogStmts() []*Instr {
	return append([]*Instr(nil), p.logStmts...)
}

// CandidateFields returns, in registration order, the fields that can
// ever be classified as meta-info: those whose declared, element or key
// type is a program class or a logged non-base type (Definition 2 marks
// no other type), and those a LogArg.Field link names. The background
// corpus holds none, so the analysis cost follows the hand-written
// model. The slice is shared and must not be modified.
func (p *Program) CandidateFields() []*Field { return p.candidates }

// CandidateAccesses returns, in program order, every getfield, putfield
// and collection-op instruction on a candidate field. The slice is
// shared and must not be modified.
func (p *Program) CandidateAccesses() []*Instr { return p.candidateAccesses }

// Derived returns the value build returned the first time Derived was
// called with key since the program was built. Packages ir cannot import
// keep immutable structures that are a function of the program alone
// here (logparse its matcher), so sharing a program shares them too.
func (p *Program) Derived(key any, build func() any) any {
	e, ok := p.derived.Load(key)
	if !ok {
		e, _ = p.derived.LoadOrStore(key, new(derivedEntry))
	}
	d := e.(*derivedEntry)
	d.once.Do(func() { d.v = build() })
	return d.v
}

// Census counts for Table 10 (left half): total types, fields and field
// access points (getfield/putfield/collop instructions).
type Census struct {
	Types        int
	Fields       int
	AccessPoints int
}

// Census returns the program-wide totals.
func (p *Program) Census() Census {
	var c Census
	c.Types = len(p.classes)
	for _, name := range p.order {
		cl := p.classes[name]
		c.Fields += len(cl.Fields)
		for _, m := range cl.Methods {
			for _, ins := range m.Instrs {
				switch ins.Op {
				case OpGetField, OpPutField, OpCollOp:
					c.AccessPoints++
				}
			}
		}
	}
	return c
}

// Validate checks referential integrity: field references resolve,
// callees exist, log statements are well-formed. It returns all problems
// found (nil means the model is consistent).
func (p *Program) Validate() []error {
	p.Build()
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, name := range p.order {
		for _, m := range p.classes[name].Methods {
			for _, ins := range m.Instrs {
				switch ins.Op {
				case OpGetField, OpPutField, OpCollOp:
					f := p.fields[ins.Field]
					if f == nil {
						bad("%s: unresolved field %s", ins.ID, ins.Field)
						continue
					}
					if ins.Op == OpCollOp {
						if !f.IsCollection() {
							bad("%s: collop on scalar field %s", ins.ID, ins.Field)
						}
						if ins.CollMethod == "" {
							bad("%s: collop without method name", ins.ID)
						}
					}
					if ins.Op != OpCollOp && f.IsCollection() {
						// Scalar access to a collection-typed field is
						// fine (reading the container reference itself).
						_ = f
					}
				case OpInvoke:
					if p.methods[ins.Callee] == nil {
						bad("%s: unresolved callee %s", ins.ID, ins.Callee)
					}
				case OpLog:
					if ins.Log == nil {
						bad("%s: log instruction without statement", ins.ID)
					} else if len(ins.Log.Segments) != len(ins.Log.Args)+1 {
						bad("%s: log statement segments/args mismatch", ins.ID)
					}
				}
			}
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}
