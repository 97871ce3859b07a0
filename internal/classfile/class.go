package classfile

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"govolve/internal/bytecode"
)

// Access is a member's access modifier. The verifier enforces it except in
// relaxed mode (used only for transformer classes, mirroring the paper's
// JastAdd extension that ignores access modifiers and final).
type Access uint8

const (
	Public Access = iota
	Private
	Protected
)

func (a Access) String() string {
	switch a {
	case Private:
		return "private"
	case Protected:
		return "protected"
	default:
		return "public"
	}
}

// Field is a declared field.
type Field struct {
	Name   string
	Desc   Desc
	Access Access
	Static bool
	Final  bool
}

// Method is a declared method with symbolic bytecode.
type Method struct {
	Name   string
	Sig    Sig
	Access Access
	Static bool
	Native bool // body supplied by the VM (internal/vm natives)
	Final  bool
	Code   []bytecode.Ins
	// MaxLocals is the number of local slots, including arguments (and the
	// receiver for instance methods). The assembler computes it; the
	// verifier checks it.
	MaxLocals int
}

// ID returns the method's name+signature identity, the unit of vtable slots
// and of UPT method matching.
func (m *Method) ID() string { return m.Name + string(m.Sig) }

// IsInit reports whether the method is a constructor.
func (m *Method) IsInit() bool { return m.Name == "<init>" }

// IsClinit reports whether the method is the class initializer.
func (m *Method) IsClinit() bool { return m.Name == "<clinit>" }

// Class is one class definition — the unit of loading and of updating.
type Class struct {
	Name    string
	Super   string // "" only for the root class Object
	Fields  []Field
	Methods []*Method
}

// Method returns the declared method with the given name+sig, or nil.
func (c *Class) Method(name string, sig Sig) *Method {
	for _, m := range c.Methods {
		if m.Name == name && m.Sig == sig {
			return m
		}
	}
	return nil
}

// MethodsNamed returns all declared methods with the given name (the
// overload set), in declaration order.
func (c *Class) MethodsNamed(name string) []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// Field returns the declared field with the given name, or nil. Field names
// are unique within a class (static and instance share a namespace, as the
// assembler enforces).
func (c *Class) Field(name string) *Field {
	for i := range c.Fields {
		if c.Fields[i].Name == name {
			return &c.Fields[i]
		}
	}
	return nil
}

// InstanceFields returns the declared non-static fields in order.
func (c *Class) InstanceFields() []Field {
	var out []Field
	for _, f := range c.Fields {
		if !f.Static {
			out = append(out, f)
		}
	}
	return out
}

// StaticFields returns the declared static fields in order.
func (c *Class) StaticFields() []Field {
	var out []Field
	for _, f := range c.Fields {
		if f.Static {
			out = append(out, f)
		}
	}
	return out
}

// Validate performs structural checks that do not need the class hierarchy:
// descriptor syntax, duplicate members, branch targets in range. It allocates
// nothing on a valid class: duplicates are found by comparing each member
// with those declared before it, classes being small.
func (c *Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("classfile: class with empty name")
	}
	for i := range c.Fields {
		f := &c.Fields[i]
		if !f.Desc.Valid() {
			return fmt.Errorf("classfile: %s.%s: bad descriptor %q", c.Name, f.Name, f.Desc)
		}
		for j := range i {
			if c.Fields[j].Name == f.Name {
				return fmt.Errorf("classfile: %s: duplicate field %s", c.Name, f.Name)
			}
		}
	}
	for i, m := range c.Methods {
		if !m.Sig.Valid() {
			return fmt.Errorf("classfile: %s.%s: bad signature %q", c.Name, m.Name, m.Sig)
		}
		for _, o := range c.Methods[:i] {
			if o.Name == m.Name && o.Sig == m.Sig {
				return fmt.Errorf("classfile: %s: duplicate method %s", c.Name, m.ID())
			}
		}
		if m.Native {
			if len(m.Code) != 0 {
				return fmt.Errorf("classfile: %s.%s: native method with code", c.Name, m.Name)
			}
			continue
		}
		for pc := range m.Code {
			if a := m.Code[pc].A; m.Code[pc].Op.IsBranch() && (a < 0 || a >= int64(len(m.Code))) {
				return fmt.Errorf("classfile: %s.%s: branch at %d targets %d (code length %d)",
					c.Name, m.Name, pc, a, len(m.Code))
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the class. UPT mutates clones when renaming
// old versions (User → v131_User) without disturbing the caller's copy.
func (c *Class) Clone() *Class {
	out := &Class{Name: c.Name, Super: c.Super}
	out.Fields = append([]Field(nil), c.Fields...)
	for _, m := range c.Methods {
		mm := *m
		mm.Code = append([]bytecode.Ins(nil), m.Code...)
		out.Methods = append(out.Methods, &mm)
	}
	return out
}

// String renders the class in assembler syntax, usable as a round-trip
// source for internal/asm. Methods and fields keep declaration order.
func (c *Class) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "class %s", c.Name)
	if c.Super != "" {
		fmt.Fprintf(&b, " extends %s", c.Super)
	}
	b.WriteString(" {\n")
	for _, f := range c.Fields {
		b.WriteString("  ")
		if f.Access != Public {
			b.WriteString(f.Access.String() + " ")
		}
		if f.Static {
			b.WriteString("static ")
		}
		if f.Final {
			b.WriteString("final ")
		}
		fmt.Fprintf(&b, "field %s %s\n", f.Name, f.Desc)
	}
	for _, m := range c.Methods {
		b.WriteString("  ")
		if m.Access != Public {
			b.WriteString(m.Access.String() + " ")
		}
		if m.Static {
			b.WriteString("static ")
		}
		if m.Final {
			b.WriteString("final ")
		}
		if m.Native {
			fmt.Fprintf(&b, "native method %s%s\n", m.Name, m.Sig)
			continue
		}
		fmt.Fprintf(&b, "method %s%s {\n", m.Name, m.Sig)
		// Branch targets become labels so that the output re-assembles.
		targets := make(map[int]string)
		for _, ins := range m.Code {
			if ins.Op.IsBranch() {
				targets[int(ins.A)] = fmt.Sprintf("L%d", ins.A)
			}
		}
		for idx, ins := range m.Code {
			if label, ok := targets[idx]; ok {
				fmt.Fprintf(&b, "  %s:\n", label)
			}
			if ins.Op.IsBranch() {
				fmt.Fprintf(&b, "    %s %s\n", ins.Op, targets[int(ins.A)])
			} else {
				fmt.Fprintf(&b, "    %s\n", ins)
			}
		}
		if label, ok := targets[len(m.Code)]; ok {
			fmt.Fprintf(&b, "  %s:\n", label)
			b.WriteString("    nop\n")
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// Program is a set of classes forming one version of an application.
// Classes is read freely but changed only through Add, which keeps the
// classes in name order as well.
type Program struct {
	Classes map[string]*Class

	// sorted holds Classes in name order, names their names; a Program
	// whose Classes was filled some other way has them out of step, and
	// Names and Sorted then sort afresh.
	sorted []*Class
	names  []string
}

// NewProgram builds a program from classes, rejecting duplicates.
func NewProgram(classes ...*Class) (*Program, error) {
	p := &Program{
		Classes: make(map[string]*Class, len(classes)),
		sorted:  make([]*Class, 0, len(classes)),
		names:   make([]string, 0, len(classes)),
	}
	for _, c := range classes {
		if err := p.Add(c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Add inserts a class, rejecting duplicates.
func (p *Program) Add(c *Class) error {
	if _, dup := p.Classes[c.Name]; dup {
		return fmt.Errorf("classfile: duplicate class %s", c.Name)
	}
	p.Classes[c.Name] = c
	if len(p.names) == len(p.Classes)-1 {
		i, _ := slices.BinarySearch(p.names, c.Name)
		p.names = slices.Insert(p.names, i, c.Name)
		p.sorted = slices.Insert(p.sorted, i, c)
	}
	return nil
}

// Names returns the class names in sorted order. The slice is the
// program's own: callers must not modify it.
func (p *Program) Names() []string {
	if len(p.names) == len(p.Classes) {
		return p.names
	}
	out := make([]string, 0, len(p.Classes))
	for name := range p.Classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sorted returns the classes ordered by name, for deterministic iteration.
// The slice is the program's own: callers must not modify it.
func (p *Program) Sorted() []*Class {
	if len(p.sorted) == len(p.Classes) {
		return p.sorted
	}
	out := make([]*Class, 0, len(p.Classes))
	for _, name := range p.Names() {
		out = append(out, p.Classes[name])
	}
	return out
}
