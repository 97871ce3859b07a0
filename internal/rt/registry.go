package rt

import (
	"fmt"
	"sort"

	"govolve/internal/classfile"
)

// Registry is the VM's class registry plus the JTOC (global statics table),
// the global method table, and the string intern table. It is the single
// source of truth the JIT resolves against and the DSU engine mutates when
// installing an update.
type Registry struct {
	classes map[string]*Class
	byID    []*Class
	methods []*Method

	// JTOC is the statics table. Reference slots are GC roots.
	JTOC []Value

	// Interns maps string literals to intern-table indexes; InternRoots
	// holds the corresponding String objects (created lazily by the VM on
	// first LDC execution) and is a GC root set.
	Interns     map[string]int
	InternLits  []string
	InternRoots []Value
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		classes: make(map[string]*Class),
		byID:    []*Class{nil}, // class ID 0 is reserved (arrays, null)
		Interns: make(map[string]int),
	}
}

// LookupClass returns the loaded class by name, or nil.
func (r *Registry) LookupClass(name string) *Class { return r.classes[name] }

// LookupDef implements verifier.Env-style lookup over loaded definitions.
func (r *Registry) LookupDef(name string) *classfile.Class {
	if c := r.classes[name]; c != nil {
		return c.Def
	}
	return nil
}

// ClassByID returns the class with the given runtime ID, or nil.
func (r *Registry) ClassByID(id int) *Class {
	if id <= 0 || id >= len(r.byID) {
		return nil
	}
	return r.byID[id]
}

// MethodByID returns the method with the given global ID.
func (r *Registry) MethodByID(id int) *Method { return r.methods[id] }

// Methods returns every method ever loaded, in global-ID order. The DSU
// engine walks it to invalidate compiled code whose layout dependencies
// include updated classes.
func (r *Registry) Methods() []*Method { return r.methods }

// Classes returns all loaded classes sorted by name (renamed old versions
// included), for deterministic iteration.
func (r *Registry) Classes() []*Class {
	names := make([]string, 0, len(r.classes))
	for n := range r.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Class, len(names))
	for i, n := range names {
		out[i] = r.classes[n]
	}
	return out
}

// Load resolves and registers a class definition. The superclass must
// already be loaded. Load performs linking: field offset assignment, JTOC
// slot allocation, and TIB construction.
func (r *Registry) Load(def *classfile.Class) (*Class, error) {
	if _, dup := r.classes[def.Name]; dup {
		return nil, fmt.Errorf("rt: class %s already loaded", def.Name)
	}
	if def.Super == "String" {
		// A String's instances are arrays (heap/bits.go); a subclass's could
		// not be.
		return nil, fmt.Errorf("rt: class %s: String cannot be extended", def.Name)
	}
	var super *Class
	if def.Super != "" {
		super = r.classes[def.Super]
		if super == nil {
			return nil, fmt.Errorf("rt: class %s: superclass %s not loaded", def.Name, def.Super)
		}
	}
	c := r.link(def, super)
	r.classes[def.Name] = c
	if super != nil {
		super.Subclasses = append(super.Subclasses, c)
	}
	return c, nil
}

// LoadProgram loads every class of a program in superclass-first order.
func (r *Registry) LoadProgram(p *classfile.Program) ([]*Class, error) {
	order, err := SuperFirst(p)
	if err != nil {
		return nil, err
	}
	out := make([]*Class, 0, len(order))
	for _, def := range order {
		c, lerr := r.Load(def)
		if lerr != nil {
			return nil, lerr
		}
		out = append(out, c)
	}
	return out, nil
}

// SuperFirst orders a program's classes so every superclass precedes its
// subclasses; classes whose superclass is outside the program are assumed
// already loaded (e.g. bootstrap classes).
func SuperFirst(p *classfile.Program) ([]*classfile.Class, error) {
	var order []*classfile.Class
	state := make(map[string]int) // 0 unseen, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		def, ok := p.Classes[name]
		if !ok {
			return nil // outside the program
		}
		switch state[name] {
		case 1:
			return fmt.Errorf("rt: superclass cycle through %s", name)
		case 2:
			return nil
		}
		state[name] = 1
		if def.Super != "" {
			if err := visit(def.Super); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, def)
		return nil
	}
	for _, name := range p.Names() {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// link computes the runtime representation of a class: instance layout,
// static slots, TIB, and method identities.
func (r *Registry) link(def *classfile.Class, super *Class) *Class {
	inherited, vslots := 0, 0
	if super != nil {
		inherited, vslots = len(super.Fields), len(super.vslots)
	}
	c := &Class{
		ID:           len(r.byID),
		Name:         def.Name,
		Super:        super,
		Def:          def,
		fieldByName:  make(map[string]*FieldSlot, inherited+len(def.Fields)),
		staticByName: make(map[string]*StaticSlot),
		vslots:       make(map[memberKey]int, vslots+len(def.Methods)),
		methods:      make(map[string]*Method, len(def.Methods)),
	}
	r.byID = append(r.byID, c)

	// Instance layout: inherited fields keep their offsets; own fields
	// are appended. This is why adding a field to a superclass shifts
	// every subclass's layout — the transitive effect UPT must propagate.
	if super != nil {
		c.Fields = append(c.Fields, super.Fields...)
	}
	for _, f := range def.InstanceFields() {
		c.Fields = append(c.Fields, FieldSlot{
			Name: f.Name, Desc: f.Desc,
			Offset:     HeaderWords + len(c.Fields),
			DeclaredIn: c,
		})
	}
	c.Size = HeaderWords + len(c.Fields)
	c.RefMap = make([]bool, len(c.Fields))
	for i := range c.Fields {
		c.fieldByName[c.Fields[i].Name] = &c.Fields[i]
		if c.RefMap[i] = c.Fields[i].Desc.IsRef(); c.RefMap[i] {
			c.RefOffsets = append(c.RefOffsets, Addr(c.Fields[i].Offset))
		}
	}

	// Static slots: fresh JTOC entries, zero-initialized with ref tags.
	for _, f := range def.StaticFields() {
		slot := len(r.JTOC)
		r.JTOC = append(r.JTOC, Value{IsRef: f.Desc.IsRef()})
		c.Statics = append(c.Statics, StaticSlot{
			Name: f.Name, Desc: f.Desc, Slot: slot, DeclaredIn: c,
		})
	}
	for i := range c.Statics {
		c.staticByName[c.Statics[i].Name] = &c.Statics[i]
	}

	// TIB: start from the superclass's table; overriding methods replace
	// slots, new virtual methods extend it.
	if super != nil {
		c.TIB = append(c.TIB, super.TIB...)
		for key, slot := range super.vslots {
			c.vslots[key] = slot
		}
	}
	for _, dm := range def.Methods {
		m := &Method{Class: c, Def: dm, GlobalID: len(r.methods), TIBSlot: -1}
		m.NumArgs, m.RetVoid = dm.Sig.Shape()
		r.methods = append(r.methods, m)
		m.overload = c.methods[dm.Name]
		c.methods[dm.Name] = m
		key := memberKey{dm.Name, dm.Sig}
		if virtualDispatch(dm) {
			if slot, overrides := c.vslots[key]; overrides {
				m.TIBSlot = slot
				c.TIB[slot] = m
			} else {
				m.TIBSlot = len(c.TIB)
				c.vslots[key] = m.TIBSlot
				c.TIB = append(c.TIB, m)
			}
		}
	}
	return c
}

// InternIndex returns the intern-table index for a string literal,
// allocating one on first use. The VM materializes the String object
// lazily when LDC_R first executes.
func (r *Registry) InternIndex(lit string) int {
	if idx, ok := r.Interns[lit]; ok {
		return idx
	}
	idx := len(r.InternLits)
	r.Interns[lit] = idx
	r.InternLits = append(r.InternLits, lit)
	r.InternRoots = append(r.InternRoots, NullVal)
	return idx
}

// --- DSU operations -------------------------------------------------------

// RenameClass re-keys a loaded class under a new name, marking it Renamed.
// This implements the paper's old-version renaming (User → v131_User): the
// renamed class keeps its instance layout (the collector still needs it to
// copy old objects) but is stripped of methods — transformer code may read
// its fields and may not call methods on it. The caller supplies the
// fields-only definition (UPT's flattened old-version class) that types
// transformer code.
//
// It returns what it changed, for UndoRename.
func (r *Registry) RenameClass(c *Class, newName string, flatDef *classfile.Class) (Renaming, error) {
	if _, clash := r.classes[newName]; clash {
		return Renaming{}, fmt.Errorf("rt: rename %s: name %s already in use", c.Name, newName)
	}
	if r.classes[c.Name] != c {
		return Renaming{}, fmt.Errorf("rt: rename %s: class not registered under that name", c.Name)
	}
	if flatDef == nil {
		flatDef = c.Def.Clone()
		flatDef.Methods = nil
	}
	flatDef = flatDef.Clone()
	flatDef.Name = newName
	u := Renaming{c: c, name: c.Name, def: c.Def, methods: c.methods}
	delete(r.classes, c.Name)
	c.Def = flatDef
	c.Name = newName
	c.Renamed = true
	c.methods = make(map[string]*Method)
	r.classes[newName] = c
	return u, nil
}

// Renaming is what RenameClass changed in a class.
type Renaming struct {
	c       *Class
	name    string
	def     *classfile.Class
	methods map[string]*Method
}

// UndoRename gives a renamed class back its name, definition and methods and
// reinstates it under that name, which must be free again: an update that
// fails before its instances move leaves the old version as it found it.
func (r *Registry) UndoRename(u Renaming) {
	c := u.c
	r.Unregister(c)
	c.Name, c.Def, c.methods, c.Renamed = u.name, u.def, u.methods, false
	r.Reinstate(c)
}

// Reinstate registers a class under its name again and puts it back among its
// superclass's subclasses: it undoes Unregister and DetachSubclass.
func (r *Registry) Reinstate(c *Class) {
	r.classes[c.Name] = c
	if c.Super != nil {
		c.Super.Subclasses = append(c.Super.Subclasses, c)
	}
}

// Unregister removes a class from the name table (used to delete the
// transformer class and renamed old versions after an update completes, and
// to honor deleted classes in an update). Instances, if any remain, keep
// working through their TIB; they simply can no longer be named.
func (r *Registry) Unregister(c *Class) {
	if r.classes[c.Name] == c {
		delete(r.classes, c.Name)
	}
}

// DetachSubclass removes old from its superclass's subclass list (the
// replacement class takes its place when installed).
func (r *Registry) DetachSubclass(old *Class) {
	if old.Super == nil {
		return
	}
	subs := old.Super.Subclasses
	for i, s := range subs {
		if s == old {
			old.Super.Subclasses = append(subs[:i], subs[i+1:]...)
			return
		}
	}
}
