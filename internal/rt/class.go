package rt

import (
	"fmt"

	"govolve/internal/classfile"
)

// HeaderWords is the object header size: word 0 holds the class ID plus
// flags (and the forwarding pointer during GC), word 1 the array length.
const HeaderWords = 2

// FieldSlot is one instance field with its resolved word offset (measured
// from the start of the object, header included). Offsets are what the JIT
// bakes into compiled code, so they are the reason layout changes invalidate
// code.
type FieldSlot struct {
	Name       string
	Desc       classfile.Desc
	Offset     int
	DeclaredIn *Class
}

// StaticSlot is one static field with its JTOC slot.
type StaticSlot struct {
	Name       string
	Desc       classfile.Desc
	Slot       int
	DeclaredIn *Class
}

// Method is a resolved method: the runtime identity of one declared method.
type Method struct {
	Class *Class
	Def   *classfile.Method
	// GlobalID indexes the registry's method table; invokestatic/special
	// compile to it.
	GlobalID int
	// TIBSlot is the virtual dispatch slot, or -1 for statics, privates,
	// and constructors (which dispatch directly).
	TIBSlot int
	// Compiled is the current compiled code, nil until first invocation,
	// and reset to nil when the DSU engine invalidates the method.
	Compiled *CompiledMethod
	// Invocations drives the adaptive system: base-compiled methods that
	// cross the opt threshold are recompiled at the opt level.
	Invocations int
	// Pinned marks bootstrap methods the adaptive system leaves alone.
	Pinned bool
	// Native caches the VM's binding of a native method (its implementation
	// and return kind), resolved by name on the first call so that a call
	// costs a pointer load instead of a key build and a map lookup. The vm
	// package owns the concrete type. A class update creates fresh Methods,
	// whose cache starts nil and re-resolves by name: a binding is never
	// inherited from the Method it replaced.
	Native any
}

// ID returns the method's name+signature identity.
func (m *Method) ID() string { return m.Def.ID() }

// FullName returns "Class.name(sig)ret" for diagnostics.
func (m *Method) FullName() string {
	return m.Class.Name + "." + m.Def.Name + string(m.Def.Sig)
}

// IsVirtual reports whether the method dispatches through the TIB.
func (m *Method) IsVirtual() bool { return m.TIBSlot >= 0 }

// Move is one run of a move transformer: N words from offset From of the old
// instance land at offset To of the new one (offsets from the object's base).
type Move struct{ From, To, N Addr }

// Class is the resolved runtime representation of a loaded class — the
// analog of Jikes RVM's RVMClass meta-object. It owns the instance layout,
// the static slots, and the TIB.
type Class struct {
	ID    int
	Name  string
	Super *Class
	Def   *classfile.Class

	// Fields lists every instance field, inherited first, with assigned
	// offsets. Size is the total instance size in words (header included).
	Fields []FieldSlot
	Size   int
	// RefMap[i] reports whether word HeaderWords+i holds a reference: the
	// declarative form of the layout's reference-ness.
	RefMap []bool
	// RefOffsets is the scan descriptor every tracer iterates: the word
	// offsets (from the object's base, header included) of the reference
	// fields, ascending — RefMap's true entries, resolved once at link time
	// so a scan touches reference slots only.
	RefOffsets []Addr

	// Statics are this class's declared static fields with JTOC slots.
	Statics []StaticSlot

	// TIB is the virtual method table. Entry i is the implementation
	// dispatched for TIB slot i. Jikes RVM's TIB maps slots to compiled
	// code; ours maps to Methods, whose Compiled field plays that role.
	TIB []*Method

	fieldByName  map[string]*FieldSlot
	staticByName map[string]*StaticSlot
	vslotByID    map[string]int
	methods      map[string]*Method // declared methods by name+sig

	// Subclasses tracks direct subclasses, so UPT-computed transitive
	// effects and instanceof checks are cheap.
	Subclasses []*Class

	// DSU state.
	//
	// UpdatedTo points at the replacement class while an update is being
	// applied; the collector transforms instances whose class has it set.
	UpdatedTo *Class
	// Moves is set, next to UpdatedTo, when the class's object transformer is
	// a move transformer — a pure field copy (upt.Spec.ObjectMoves): the word
	// runs that carry an old instance into UpdatedTo's layout. The collector
	// then writes such an instance once, in the new layout, as it copies it;
	// nil means instances get the shell + old-copy pair and a transformer run.
	// A move transformer that carries nothing is the empty non-nil slice.
	Moves []Move
	// Renamed marks an old version that was renamed (User → v131_User)
	// and stripped of methods; it exists only to type transformer code.
	Renamed bool

	// SpawnName is the display name of the threads Thread.spawn starts on
	// this class's instances ("Name.run"); the VM builds it at the first
	// spawn so that a server spawning a handler per connection does not
	// build a string per connection.
	SpawnName string
}

// Field resolves an instance field by name, searching this class's resolved
// layout (which already includes inherited fields).
func (c *Class) Field(name string) *FieldSlot {
	return c.fieldByName[name]
}

// StaticField resolves a static field by name, searching up the hierarchy.
func (c *Class) StaticField(name string) *StaticSlot {
	for k := c; k != nil; k = k.Super {
		if s, ok := k.staticByName[name]; ok {
			return s
		}
	}
	return nil
}

// Method resolves a method by name+sig, searching up the hierarchy.
func (c *Class) Method(name string, sig classfile.Sig) *Method {
	return c.MethodByID(name + string(sig))
}

// MethodByID is Method for a caller that already holds the "name(sig)ret"
// identity (classfile.Method.ID), sparing the concatenation.
func (c *Class) MethodByID(id string) *Method {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.methods[id]; ok {
			return m
		}
	}
	return nil
}

// DeclaredMethods returns the class's own methods in declaration order.
func (c *Class) DeclaredMethods() []*Method {
	out := make([]*Method, 0, len(c.Def.Methods))
	for _, dm := range c.Def.Methods {
		out = append(out, c.methods[dm.ID()])
	}
	return out
}

// VSlot returns the TIB slot for a method identity, or -1.
func (c *Class) VSlot(name string, sig classfile.Sig) int {
	if s, ok := c.vslotByID[name+string(sig)]; ok {
		return s
	}
	return -1
}

// IsSubclassOf reports whether c is k or a descendant of k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

func (c *Class) String() string {
	return fmt.Sprintf("class %s (id=%d, size=%d words)", c.Name, c.ID, c.Size)
}

// virtualDispatch reports whether a declared method occupies a TIB slot.
// Constructors and private methods dispatch directly via invokespecial.
func virtualDispatch(m *classfile.Method) bool {
	return !m.Static && !m.IsInit() && m.Access != classfile.Private
}
