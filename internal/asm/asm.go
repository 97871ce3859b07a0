// Package asm assembles textual class definitions (.jva files) into
// classfile objects. The three example servers and their version streams
// are written in this syntax, as is the microbenchmark.
//
// Syntax (line-oriented; '//' starts a comment):
//
//	class User extends Object {
//	  private field username LString;
//	  static field count I
//
//	  method <init>(LString;)V {
//	    load 0
//	    invokespecial Object.<init>()V
//	    load 0
//	    load 1
//	    putfield User.username LString;
//	    return
//	  }
//
//	  native static method now()I
//	}
//
// Branch targets are labels: a line "loop:" declares a label, and
// "goto loop" / "ifeq done" reference it. Local slot 0 is the receiver for
// instance methods; argument slots follow; MaxLocals is computed from the
// highest load/store index.
package asm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// Error is a source-position-annotated assembly error.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Assemble parses source text into a set of classes. The file name is used
// only for error messages.
func Assemble(file, src string) ([]*classfile.Class, error) {
	p := parsers.Get().(*parser)
	defer parsers.Put(p)
	*p = parser{file: file, src: src, scratch: p.scratch}
	var classes []*classfile.Class
	for {
		if fields, err := p.next(); err != nil {
			return nil, err
		} else if fields == nil {
			break
		}
		c, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
	}
	if len(classes) == 0 {
		return nil, &Error{File: file, Line: 1, Msg: "no classes in source"}
	}
	return classes, nil
}

// AssembleProgram assembles source text into a Program.
func AssembleProgram(file, src string) (*classfile.Program, error) {
	classes, err := Assemble(file, src)
	if err != nil {
		return nil, err
	}
	return classfile.NewProgram(classes...)
}

// parser reads the source once, line by line, and each line once: next
// splits the line at off into fields in place, and advance moves past it.
type parser struct {
	file string
	src  string
	off  int // offset of the current line; past len(src) at end of file
	end  int // offset of the current line's newline, or len(src)
	pos  int // index of the current line

	// split says the current line has been split into fields.
	split bool
	scratch
}

// scratch is the storage a parser reuses from line to line, class to class
// and, through parsers, from one Assemble to the next.
type scratch struct {
	// fields is the current line split once: what next returns is good
	// until the next advance.
	fields []string

	// A class's fields, methods and code are copied out once it is
	// complete, each into one array of exactly its size; ends[i] is where
	// method i's code ends in code.
	members []classfile.Field
	methods []classfile.Method
	code    []bytecode.Ins
	ends    []int
	labels  []label
	fixups  []fixup
}

// parsers recycles parsers and their scratch. A parser at rest still points
// into the last source it read; the pool lets go of it at a garbage
// collection.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// label is a label declared in the body being parsed.
type label struct {
	name string
	pc   int
}

// fixup is a branch waiting for its label.
type fixup struct {
	insIdx int
	label  string
	line   int
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{File: p.file, Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// next skips blank lines and returns the current line's fields (comment
// stripped, quoted strings kept as single fields), or nil at end of file. It
// does not move past the line: the caller advances once it has used it.
func (p *parser) next() ([]string, error) {
	for p.off <= len(p.src) {
		if !p.split {
			fields, end, err := lex(p.fields[:0], p.src, p.off)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			p.fields, p.end, p.split = fields, end, true
		}
		if len(p.fields) > 0 {
			return p.fields, nil
		}
		p.advance()
	}
	return nil, nil
}

func (p *parser) advance() { p.off, p.pos, p.split = p.end+1, p.pos+1, false }

// stops marks the bytes a token ends before: whitespace, the newline, and a
// slash, which ends it only when a second one follows.
var stops = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '/': true}

// lex splits the line of src starting at i on whitespace, keeping
// double-quoted strings (with Go escape syntax) as single fields and
// stripping '//' comments. The fields are appended to the slice it is given;
// end is the offset of the line's newline, or len(src) on the last line.
func lex(fields []string, src string, i int) (_ []string, end int, err error) {
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '\n':
			return fields, i, nil
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			if n := strings.IndexByte(src[i:], '\n'); n >= 0 {
				i += n
			} else {
				i = len(src)
			}
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				if src[j] == '\\' && j+1 < len(src) && src[j+1] != '\n' {
					j++
				}
				j++
			}
			if j >= len(src) || src[j] != '"' {
				return nil, 0, fmt.Errorf("unterminated string literal")
			}
			fields = append(fields, src[i:j+1])
			i = j + 1
		default:
			j := i + 1
			for j < len(src) && (!stops[src[j]] || src[j] == '/' && (j+1 == len(src) || src[j+1] != '/')) {
				j++
			}
			fields = append(fields, src[i:j])
			i = j
		}
	}
	return fields, len(src), nil
}

func (p *parser) parseClass() (*classfile.Class, error) {
	fields, err := p.next()
	if err != nil {
		return nil, err
	}
	if fields == nil || fields[0] != "class" {
		return nil, p.errf("expected 'class', got %q", strings.Join(fields, " "))
	}
	c := &classfile.Class{}
	rest := fields[1:]
	if len(rest) == 0 {
		return nil, p.errf("class declaration missing name")
	}
	c.Name = rest[0]
	rest = rest[1:]
	if len(rest) >= 2 && rest[0] == "extends" {
		c.Super = rest[1]
		rest = rest[2:]
	} else if c.Name != "Object" {
		c.Super = "Object"
	}
	if len(rest) != 1 || rest[0] != "{" {
		return nil, p.errf("class %s: expected '{' at end of declaration", c.Name)
	}
	p.advance()
	p.members, p.methods, p.code, p.ends = p.members[:0], p.methods[:0], p.code[:0], p.ends[:0]
	for {
		fields, err := p.next()
		if err != nil {
			return nil, err
		}
		if fields == nil {
			return nil, p.errf("class %s: unexpected end of file", c.Name)
		}
		if fields[0] == "}" {
			p.advance()
			break
		}
		if err := p.parseMember(c, fields); err != nil {
			return nil, err
		}
	}
	if len(p.members) > 0 {
		c.Fields = slices.Clone(p.members)
	}
	if len(p.methods) > 0 {
		methods := slices.Clone(p.methods)
		code := slices.Clone(p.code)
		c.Methods = make([]*classfile.Method, len(methods))
		start := 0
		for i, end := range p.ends {
			if end > start {
				methods[i].Code = code[start:end:end]
			}
			c.Methods[i] = &methods[i]
			start = end
		}
	}
	if err := c.Validate(); err != nil {
		return nil, p.errf("%v", err)
	}
	return c, nil
}

func (p *parser) parseMember(c *classfile.Class, fields []string) error {
	access := classfile.Public
	static, final, native := false, false, false
	i := 0
modifiers:
	for ; i < len(fields); i++ {
		switch fields[i] {
		case "public":
			access = classfile.Public
		case "private":
			access = classfile.Private
		case "protected":
			access = classfile.Protected
		case "static":
			static = true
		case "final":
			final = true
		case "native":
			native = true
		default:
			break modifiers
		}
	}
	if i >= len(fields) {
		return p.errf("class %s: expected 'field' or 'method'", c.Name)
	}
	switch fields[i] {
	case "field":
		rest := fields[i+1:]
		if native {
			return p.errf("class %s: field cannot be native", c.Name)
		}
		if len(rest) != 2 {
			return p.errf("class %s: field wants 'field NAME DESC'", c.Name)
		}
		p.members = append(p.members, classfile.Field{
			Name: rest[0], Desc: classfile.Desc(rest[1]),
			Access: access, Static: static, Final: final,
		})
		p.advance()
		return nil
	case "method":
		rest := fields[i+1:]
		if len(rest) == 0 {
			return p.errf("class %s: method missing name+signature", c.Name)
		}
		name, sig, nargs, err := splitNameSig(rest[0])
		if err != nil {
			return p.errf("class %s: %v", c.Name, err)
		}
		m := classfile.Method{
			Name: name, Sig: sig,
			Access: access, Static: static, Final: final, Native: native,
		}
		rest = rest[1:]
		if native {
			if len(rest) != 0 {
				return p.errf("class %s: native method %s takes no body", c.Name, name)
			}
			p.advance()
			p.methods, p.ends = append(p.methods, m), append(p.ends, len(p.code))
			return nil
		}
		if len(rest) != 1 || rest[0] != "{" {
			return p.errf("class %s: method %s: expected '{'", c.Name, name)
		}
		p.advance()
		if err := p.parseBody(c.Name, &m, nargs); err != nil {
			return err
		}
		p.methods, p.ends = append(p.methods, m), append(p.ends, len(p.code))
		return nil
	default:
		return p.errf("class %s: expected 'field' or 'method', got %q", c.Name, fields[i])
	}
}

// parseBody reads the body of m, whose signature declares nargs arguments,
// onto the end of the class's code.
func (p *parser) parseBody(className string, m *classfile.Method, nargs int) error {
	start := len(p.code)
	p.labels, p.fixups = p.labels[:0], p.fixups[:0]
	maxLocal := nargs - 1
	if !m.Static {
		maxLocal = nargs
	}

	for {
		fields, err := p.next()
		if err != nil {
			return err
		}
		if fields == nil {
			return p.errf("method %s.%s: unexpected end of file", className, m.Name)
		}
		if fields[0] == "}" {
			p.advance()
			break
		}
		// Label line: "name:".
		if f := fields[0]; len(fields) == 1 && f[len(f)-1] == ':' {
			name := f[:len(f)-1]
			if p.labelPC(name) >= 0 {
				return p.errf("method %s.%s: duplicate label %q", className, m.Name, name)
			}
			p.labels = append(p.labels, label{name, len(p.code) - start})
			p.advance()
			continue
		}
		op, ok := bytecode.OpNamed(fields[0])
		if !ok {
			return p.errf("method %s.%s: unknown opcode %q", className, m.Name, fields[0])
		}
		ins := bytecode.Ins{Op: op}
		args := fields[1:]
		switch op {
		case bytecode.CONST, bytecode.LOAD, bytecode.STORE:
			if len(args) != 1 {
				return p.errf("%s wants one integer operand", op)
			}
			v, perr := strconv.ParseInt(args[0], 0, 64)
			if perr != nil {
				return p.errf("%s: bad integer %q", op, args[0])
			}
			ins.A = v
			if op != bytecode.CONST && int(v) > maxLocal {
				maxLocal = int(v)
			}
		case bytecode.LDC, bytecode.TRAP:
			if len(args) != 1 {
				return p.errf("%s wants one string operand", op)
			}
			s, perr := strconv.Unquote(args[0])
			if perr != nil {
				return p.errf("%s: bad string %s", op, args[0])
			}
			ins.Str = s
		case bytecode.NEW, bytecode.INSTANCEOF, bytecode.CHECKCAST:
			if len(args) != 1 {
				return p.errf("%s wants a class name", op)
			}
			ins.Sym = args[0]
		case bytecode.NEWARRAY:
			if len(args) != 1 {
				return p.errf("newarray wants an element descriptor")
			}
			ins.Desc = args[0]
		case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.GETSTATIC, bytecode.PUTSTATIC:
			if len(args) != 2 {
				return p.errf("%s wants 'Class.field DESC'", op)
			}
			ins.Sym, ins.Desc = args[0], args[1]
		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESTATIC, bytecode.INVOKESPECIAL:
			if len(args) != 1 {
				return p.errf("%s wants 'Class.method(SIG)RET'", op)
			}
			paren := strings.IndexByte(args[0], '(')
			if paren < 0 {
				return p.errf("%s: missing signature in %q", op, args[0])
			}
			ins.Sym, ins.Desc = args[0][:paren], args[0][paren:]
		default:
			if op.IsBranch() {
				if len(args) != 1 {
					return p.errf("%s wants a label", op)
				}
				p.fixups = append(p.fixups, fixup{len(p.code), args[0], p.pos + 1})
			} else if len(args) != 0 {
				return p.errf("%s takes no operands", op)
			}
		}
		p.code = append(p.code, ins)
		p.advance()
	}
	for _, f := range p.fixups {
		target := p.labelPC(f.label)
		if target < 0 {
			return &Error{File: p.file, Line: f.line,
				Msg: fmt.Sprintf("method %s.%s: undefined label %q", className, m.Name, f.label)}
		}
		p.code[f.insIdx].A = int64(target)
	}
	m.MaxLocals = maxLocal + 1
	return nil
}

// labelPC returns the instruction index the body's label name marks, or -1.
// A body declares a handful of labels, so a scan beats a map.
func (p *parser) labelPC(name string) int {
	for _, l := range p.labels {
		if l.name == name {
			return l.pc
		}
	}
	return -1
}

// splitNameSig splits "getName()LString;" into name and signature, scanning
// the signature once for its validity and its argument count.
func splitNameSig(s string) (string, classfile.Sig, int, error) {
	paren := strings.IndexByte(s, '(')
	if paren <= 0 {
		return "", "", 0, fmt.Errorf("malformed method name+signature %q", s)
	}
	name, sig := s[:paren], classfile.Sig(s[paren:])
	nargs := sig.NumArgs()
	if nargs < 0 {
		return "", "", 0, fmt.Errorf("malformed signature %q", sig)
	}
	return name, sig, nargs, nil
}
