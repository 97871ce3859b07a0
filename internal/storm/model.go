// Package storm is a seeded, deterministic update-storm harness for the
// DSU engine. It generates random class hierarchies and random *legal*
// update diffs, pushes long sequences of them through the real pipeline —
// UPT diff → spec → core coordinator → DSU GC → transformers — against a
// VM running generated workload threads (a loop-pinned spinner and a
// thread blocked in accept, so return barriers and OSR actually fire), and
// after every update runs a whole-VM invariant checker: full heap walk,
// transformer oracle against a Go-side shadow model of the object graph,
// stack walk, and bounded-gauge checks. Everything is reproducible from a
// single seed, which every failure message carries.
package storm

import (
	"fmt"
	"math/rand"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// Names the model reserves. G0 is the stable hub class: it always exists,
// always has the protected entry method the workload threads call, and
// carries the probe-result static the snap methods write (excluded from
// shadow tracking because guest code writes it).
const (
	hubClass  = "G0"
	hubEntry  = "entry"
	hubOut    = "out"
	stormPort = 7070
	loopIters = 6
	listBound = 24
)

// fieldModel is one declared field of a generated class. Field names are
// globally unique (f<N>), so name matching across hierarchy levels — the
// rule UPT's default transformers use — never aliases unrelated fields.
type fieldModel struct {
	name   string
	desc   string // "I", "LObject;", or "L<generated class>;"
	static bool
}

// callRef is a static call edge; fieldRef is a getstatic read edge. Both
// are validated at emission time (the target may have been mutated away),
// so bodies self-heal: an edge that loses its target simply stops being
// emitted, which UPT classifies as a method body change.
type callRef struct{ class, method string }
type fieldRef struct{ class, field string }

// methodModel is one generated static work method. bodySeed drives the
// arithmetic filler; reads and calls are the cross-class edges that give
// compiled callers layout dependencies (category-2 fodder).
type methodModel struct {
	name      string
	sig       string // "(I)I" or "(II)I"
	protected bool   // G0.entry: never deleted, never sig-changed
	loop      bool   // wrap the body in a counted loop (backedge yields)
	bodySeed  int64
	reads     []fieldRef
	calls     []callRef
}

// classModel is one generated class.
type classModel struct {
	name    string
	super   string // "Object" or another generated class
	fields  []fieldModel
	methods []methodModel
}

// model is a whole generated program version. classes is ordered by
// creation; call edges only point from lower to higher class index, so the
// call graph is a DAG and generated code cannot recurse.
type model struct {
	classes   []*classModel
	nextField int
	nextClass int
	nextMeth  int
}

func (m *model) find(name string) (*classModel, int) {
	for i, c := range m.classes {
		if c.name == name {
			return c, i
		}
	}
	return nil, -1
}

func (m *model) fieldOf(class, field string) *fieldModel {
	c, _ := m.find(class)
	if c == nil {
		return nil
	}
	for i := range c.fields {
		if c.fields[i].name == field {
			return &c.fields[i]
		}
	}
	return nil
}

func (m *model) methodOf(class, method string) *methodModel {
	c, _ := m.find(class)
	if c == nil {
		return nil
	}
	for i := range c.methods {
		if c.methods[i].name == method {
			return &c.methods[i]
		}
	}
	return nil
}

// descendantOf reports whether sub transitively extends anc in the model.
func (m *model) descendantOf(sub, anc string) bool {
	for cur := sub; cur != "" && cur != "Object"; {
		if cur == anc {
			return true
		}
		c, _ := m.find(cur)
		if c == nil {
			return false
		}
		cur = c.super
	}
	return anc == "Object"
}

// flatInstanceFields returns the flattened instance layout of class: the
// non-static fields of its whole super chain, root-first, in declaration
// order — the model-side equivalent of the registry's flattened layout and
// of UPT's instanceLayout, so shadow-model indices line up with rt.Class
// field slots one-for-one.
func (m *model) flatInstanceFields(class string) []fieldModel {
	var chain []*classModel
	for cur := class; cur != "" && cur != "Object"; {
		c, _ := m.find(cur)
		if c == nil {
			break
		}
		chain = append(chain, c)
		cur = c.super
	}
	var out []fieldModel
	for i := len(chain) - 1; i >= 0; i-- {
		for _, f := range chain[i].fields {
			if !f.static {
				out = append(out, f)
			}
		}
	}
	return out
}

// hasSubclasses reports whether any model class extends name.
func (m *model) hasSubclasses(name string) bool {
	for _, c := range m.classes {
		if c.super == name {
			return true
		}
	}
	return false
}

func (m *model) clone() *model {
	n := &model{nextField: m.nextField, nextClass: m.nextClass, nextMeth: m.nextMeth}
	for _, c := range m.classes {
		cc := &classModel{name: c.name, super: c.super}
		cc.fields = append([]fieldModel(nil), c.fields...)
		for _, mm := range c.methods {
			nm := mm
			nm.reads = append([]fieldRef(nil), mm.reads...)
			nm.calls = append([]callRef(nil), mm.calls...)
			cc.methods = append(cc.methods, nm)
		}
		n.classes = append(n.classes, cc)
	}
	return n
}

// newField / newMethod / newClassName mint globally-unique names.
func (m *model) newField(desc string, static bool) fieldModel {
	m.nextField++
	return fieldModel{name: fmt.Sprintf("f%d", m.nextField), desc: desc, static: static}
}

func (m *model) newMethodName() string {
	m.nextMeth++
	return fmt.Sprintf("w%d", m.nextMeth)
}

func (m *model) newClassName() string {
	m.nextClass++
	return fmt.Sprintf("C%d", m.nextClass)
}

// randomDesc picks a field type: mostly ints, sometimes refs (untyped
// Object or a reference to an existing generated class).
func (m *model) randomDesc(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return "LObject;"
	case 1:
		return "L" + m.classes[rng.Intn(len(m.classes))].name + ";"
	default:
		return "I"
	}
}

// newModel builds the initial program model: the hub class G0 plus
// nclasses generated classes, each with a few fields and work methods.
func newModel(rng *rand.Rand, nclasses int) *model {
	m := &model{}
	hub := &classModel{name: hubClass, super: "Object"}
	hub.fields = append(hub.fields, fieldModel{name: hubOut, desc: "I", static: true})
	m.classes = append(m.classes, hub)

	for i := 0; i < nclasses; i++ {
		c := &classModel{name: m.newClassName(), super: "Object"}
		if i > 0 && rng.Intn(3) == 0 {
			// Sometimes extend an earlier generated class.
			c.super = m.classes[1+rng.Intn(i)].name
		}
		nf := 1 + rng.Intn(3)
		for j := 0; j < nf; j++ {
			c.fields = append(c.fields, m.newField(m.randomDesc(rng), false))
		}
		ns := rng.Intn(2) + 1
		for j := 0; j < ns; j++ {
			c.fields = append(c.fields, m.newField("I", true))
		}
		nw := 1 + rng.Intn(2)
		for j := 0; j < nw; j++ {
			c.methods = append(c.methods, methodModel{
				name: m.newMethodName(), sig: "(I)I", bodySeed: rng.Int63(),
			})
		}
		m.classes = append(m.classes, c)
	}

	// The hub's protected entry method: a counted loop whose body calls
	// into the generated classes; every workload thread funnels through it.
	entry := methodModel{
		name: hubEntry, sig: "(I)I", protected: true, loop: true, bodySeed: rng.Int63(),
	}
	m.classes[0].methods = append(m.classes[0].methods, entry)
	m.addRandomEdges(rng, 0, len(m.classes[0].methods)-1, 3)

	// Sprinkle edges between the generated classes (DAG order: lower class
	// index may only call higher).
	for ci := 1; ci < len(m.classes); ci++ {
		for mi := range m.classes[ci].methods {
			m.addRandomEdges(rng, ci, mi, 2)
		}
	}
	return m
}

// addRandomEdges adds up to n random read/call edges from method mi of
// class ci, respecting the call DAG (calls only to higher class indexes).
func (m *model) addRandomEdges(rng *rand.Rand, ci, mi, n int) {
	mm := &m.classes[ci].methods[mi]
	for k := 0; k < n; k++ {
		if rng.Intn(2) == 0 {
			// Read edge: a static int field of any generated class.
			tc := m.classes[rng.Intn(len(m.classes))]
			for _, f := range tc.fields {
				if f.static && f.desc == "I" && f.name != hubOut {
					mm.reads = append(mm.reads, fieldRef{tc.name, f.name})
					break
				}
			}
		} else if ci+1 < len(m.classes) {
			// Call edge: a work method of a strictly-later class.
			tc := m.classes[ci+1+rng.Intn(len(m.classes)-ci-1)]
			for _, tm := range tc.methods {
				if !tm.protected {
					mm.calls = append(mm.calls, callRef{tc.name, tm.name})
					break
				}
			}
		}
	}
}

// --- program emission -------------------------------------------------------

// program builds the classfile.Program for the model: every generated
// class (constructor, probe, snap, work methods) plus the fixed workload
// classes. Emission is a pure function of the model, so two builds of the
// same model produce bytecode-identical programs (what UPT's diff relies
// on to see only the mutated parts).
func (m *model) program() (*classfile.Program, error) {
	p, err := classfile.NewProgram()
	if err != nil {
		return nil, err
	}
	for _, c := range m.classes {
		def, err := m.buildClass(c)
		if err != nil {
			return nil, err
		}
		if err := p.Add(def); err != nil {
			return nil, err
		}
	}
	for _, def := range workloadClasses() {
		if err := p.Add(def); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (m *model) buildClass(c *classModel) (*classfile.Class, error) {
	b := classfile.NewClass(c.name, c.super)
	for _, f := range c.fields {
		b.FieldSpec(classfile.Field{Name: f.name, Desc: classfile.Desc(f.desc), Static: f.static})
	}

	// <init>()V: chain to super.
	b = b.Method("<init>", "()V").
		Load(0).Special(c.super, "<init>", "()V").Ret().Done()

	// probe()I: super chain sum of all declared int instance fields. This
	// is the bytecode half of the transformer oracle — its result must
	// match the Go-side shadow sum after every update.
	pb := b.Method("probe", "()I")
	if c.super != "Object" {
		pb.Load(0).Special(c.super, "probe", "()I")
	} else {
		pb.Const(0)
	}
	for _, f := range c.fields {
		if !f.static && f.desc == "I" {
			pb.Load(0).GetField(c.name, f.name, "I").Op(bytecode.ADD)
		}
	}
	b = pb.Ret().Done()

	// snap(LC;)V: run probe through real dispatch and park the result in
	// G0.out, where the Go driver can read it from the JTOC.
	b = b.StaticMethod("snap", classfile.Sig("(L"+c.name+";)V")).
		Load(0).Virtual(c.name, "probe", "()I").
		PutStatic(hubClass, hubOut, "I").Ret().Done()

	for i := range c.methods {
		mb := b.StaticMethod(c.methods[i].name, classfile.Sig(c.methods[i].sig))
		m.emitBody(mb, &c.methods[i])
		b = mb.Done()
	}
	return b.Build()
}

// emitBody writes a work method: an int expression over the method's
// argument, bodySeed-driven constants, valid read edges, and valid call
// edges. Loop methods wrap the expression in a counted loop so threads
// park at backedge yield points inside the frame.
func (m *model) emitBody(mb *classfile.MethodBuilder, mm *methodModel) {
	ops := rand.New(rand.NewSource(mm.bodySeed))
	nargs := 1
	if mm.sig == "(II)I" {
		nargs = 2
	}
	combine := func() {
		switch ops.Intn(3) {
		case 0:
			mb.Op(bytecode.ADD)
		case 1:
			mb.Op(bytecode.SUB)
		default:
			mb.Op(bytecode.MUL)
		}
	}
	expr := func() {
		// Seed-driven arithmetic filler.
		n := 1 + ops.Intn(2)
		for i := 0; i < n; i++ {
			if ops.Intn(2) == 0 {
				mb.Const(int64(ops.Intn(97) + 1))
			} else {
				mb.Load(ops.Intn(nargs))
			}
			combine()
		}
		// Read edges that still resolve to a static int field.
		for _, r := range mm.reads {
			f := m.fieldOf(r.class, r.field)
			if f == nil || !f.static || f.desc != "I" {
				continue
			}
			mb.GetStatic(r.class, r.field, "I")
			combine()
		}
		// Call edges that still resolve, adapting to the callee's current
		// signature.
		for _, cr := range mm.calls {
			tm := m.methodOf(cr.class, cr.method)
			if tm == nil {
				continue
			}
			mb.Load(0)
			if tm.sig == "(II)I" {
				mb.Const(int64(ops.Intn(13) + 1))
			}
			mb.Invoke(bytecode.INVOKESTATIC, cr.class, cr.method, classfile.Sig(tm.sig))
			combine()
		}
	}

	if mm.loop {
		acc, i := nargs, nargs+1
		mb.Load(0).Store(acc)
		mb.Const(0).Store(i)
		mb.Label("loop")
		mb.Load(i).Const(loopIters).Branch(bytecode.IF_ICMPGE, "done")
		mb.Load(acc)
		expr()
		mb.Store(acc)
		mb.Load(i).Const(1).Op(bytecode.ADD).Store(i)
		mb.Branch(bytecode.GOTO, "loop")
		mb.Label("done")
		mb.Load(acc).Ret()
		return
	}
	mb.Load(0)
	expr()
	mb.Ret()
}

// entryCostBudget bounds the estimated dynamic instruction cost of one
// G0.entry(I)I call. The call graph is a DAG, but mutations accumulate
// duplicate call edges and added classes deepen it, so the number of call
// paths — and with it entry's dynamic cost — can grow exponentially along
// a long version chain. A DSU safe-point attempt runs once per scheduling
// slice (vm.Quantum instructions), and a return barrier installed on an
// entry frame only fires when that call finishes — so once one entry call
// outlasts MaxAttempts slices, no safe-point search can succeed and every
// update aborts. The chain generator (NextVersion) rejects mutation
// batches that push the estimate past this budget, keeping the barrier
// latency a small fraction of the default 400-attempt search.
const entryCostBudget = 8192

// entryCost estimates the dynamic instructions of one G0.entry call.
func (m *model) entryCost() int64 {
	return m.dynamicCost(make(map[string]int64), hubClass, hubEntry)
}

// dynamicCost estimates the instructions one call of (cls, name) executes,
// following call edges exactly as emitBody resolves them (missing targets
// cost nothing — the emitter skips them too). Memoized over the DAG; a
// cycle, which emitted code would turn into unbounded recursion, returns a
// poisoned cost so the caller rejects the batch.
func (m *model) dynamicCost(memo map[string]int64, cls, name string) int64 {
	key := cls + "." + name
	if c, ok := memo[key]; ok {
		if c < 0 {
			return entryCostBudget + 1 // cycle: poison without recursing
		}
		return c
	}
	mm := m.methodOf(cls, name)
	if mm == nil {
		return 0
	}
	memo[key] = -1     // visiting
	var body int64 = 8 // prologue, filler arithmetic, return
	for _, r := range mm.reads {
		if f := m.fieldOf(r.class, r.field); f != nil && f.static && f.desc == "I" {
			body += 3
		}
	}
	for _, cr := range mm.calls {
		if tm := m.methodOf(cr.class, cr.method); tm != nil {
			body += 5 + m.dynamicCost(memo, cr.class, cr.method)
		}
	}
	cost := body
	if mm.loop {
		cost = 4 + loopIters*(body+4)
	}
	memo[key] = cost
	return cost
}

// workloadClasses builds the fixed (never-mutated) workload: a main class
// that binds the storm port and spawns the threads, a spinner pinned in an
// infinite loop (GC churn through a bounded Node list, constant calls into
// G0.entry), and an acceptor that blocks in Net.accept — the two stack
// shapes that force return barriers and OSR during updates.
func workloadClasses() []*classfile.Class {
	node := classfile.NewClass("Node", "Object").
		Field("next", "LNode;").
		Field("val", "I").
		Method("<init>", "()V").
		Load(0).Special("Object", "<init>", "()V").Ret().Done().
		MustBuild()

	sb := classfile.NewClass("Spinner", "Object").
		Method("<init>", "()V").
		Load(0).Special("Object", "<init>", "()V").Ret().Done()
	// run()V locals: 0=this 1=head 2=acc 3=n
	spinner := sb.Method("run", "()V").
		Null().Store(1).
		Const(0).Store(2).
		Const(0).Store(3).
		Label("loop").
		New("Node").Op(bytecode.DUP).Special("Node", "<init>", "()V").
		Op(bytecode.DUP).Load(1).PutField("Node", "next", "LNode;").
		Op(bytecode.DUP).Load(3).PutField("Node", "val", "I").
		Store(1).
		Load(2).Static(hubClass, hubEntry, "(I)I").Store(2).
		Load(3).Const(1).Op(bytecode.ADD).Store(3).
		Load(3).Const(listBound).Branch(bytecode.IF_ICMPLT, "keep").
		Null().Store(1).
		Const(0).Store(3).
		Label("keep").
		Branch(bytecode.GOTO, "loop").
		Done().MustBuild()

	ab := classfile.NewClass("Acceptor", "Object").
		Method("<init>", "()V").
		Load(0).Special("Object", "<init>", "()V").Ret().Done()
	// run()V locals: 0=this 1=id 2=line
	acceptor := ab.Method("run", "()V").
		Label("loop").
		Const(stormPort).Static("Net", "accept", "(I)I").Store(1).
		Load(1).Const(0).Branch(bytecode.IF_ICMPLT, "closed").
		Load(1).Static("Net", "recvLine", "(I)LString;").Store(2).
		Load(2).Branch(bytecode.IFNULL, "fin").
		Load(1).Load(2).Static("Net", "send", "(ILString;)V").
		Label("fin").
		Load(1).Static("Net", "close", "(I)V").
		Const(5).Static(hubClass, hubEntry, "(I)I").Op(bytecode.POP).
		Branch(bytecode.GOTO, "loop").
		Label("closed").
		Ret().Done().MustBuild()

	main := classfile.NewClass("StormMain", "Object").
		StaticMethod("main", "()V").
		Const(stormPort).Static("Net", "listen", "(I)I").Op(bytecode.POP).
		New("Spinner").Op(bytecode.DUP).Special("Spinner", "<init>", "()V").
		Static("Thread", "spawn", "(LObject;)V").
		New("Acceptor").Op(bytecode.DUP).Special("Acceptor", "<init>", "()V").
		Static("Thread", "spawn", "(LObject;)V").
		Ret().Done().MustBuild()

	return []*classfile.Class{node, spinner, acceptor, main}
}
