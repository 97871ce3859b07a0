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
	"strconv"
	"strings"

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
	p := &parser{file: file, lines: strings.Split(src, "\n"), labels: make(map[string]int)}
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

type parser struct {
	file  string
	lines []string
	pos   int // current line index

	// fields is the current line split once, into storage every line
	// reuses: what next returns is good until the next advance. split
	// says the current line has been.
	fields []string
	split  bool

	// Per-body tables, emptied and reused from method to method.
	labels map[string]int
	fixups []fixup
}

// fixup is a branch waiting for its label.
type fixup struct {
	insIdx int
	label  string
	line   int
}

func (p *parser) eof() bool { return p.pos >= len(p.lines) }

func (p *parser) errf(format string, args ...any) error {
	return &Error{File: p.file, Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// next skips blank lines and returns the current line's fields (comment
// stripped, quoted strings kept as single fields), or nil at end of file. It
// does not move past the line: the caller advances once it has used it.
func (p *parser) next() ([]string, error) {
	for !p.eof() {
		if !p.split {
			fields, err := splitFields(p.fields[:0], p.lines[p.pos])
			if err != nil {
				return nil, p.errf("%v", err)
			}
			p.fields, p.split = fields, true
		}
		if len(p.fields) > 0 {
			return p.fields, nil
		}
		p.advance()
	}
	return nil, nil
}

func (p *parser) advance() { p.pos, p.split = p.pos+1, false }

// codeLines counts the lines between the current one and the body's closing
// brace that are not blank, a comment or a label: the instructions. It sizes
// m.Code once; a miscount costs an append, nothing else.
func (p *parser) codeLines() int {
	n := 0
	for _, line := range p.lines[p.pos:] {
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		switch {
		case i == len(line) || line[i] == '/' || line[len(line)-1] == ':':
		case line[i] == '}':
			return n
		default:
			n++
		}
	}
	return n
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
		c.Fields = append(c.Fields, classfile.Field{
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
		name, sig, err := splitNameSig(rest[0])
		if err != nil {
			return p.errf("class %s: %v", c.Name, err)
		}
		m := &classfile.Method{
			Name: name, Sig: sig,
			Access: access, Static: static, Final: final, Native: native,
		}
		rest = rest[1:]
		if native {
			if len(rest) != 0 {
				return p.errf("class %s: native method %s takes no body", c.Name, name)
			}
			p.advance()
			c.Methods = append(c.Methods, m)
			return nil
		}
		if len(rest) != 1 || rest[0] != "{" {
			return p.errf("class %s: method %s: expected '{'", c.Name, name)
		}
		p.advance()
		if err := p.parseBody(c.Name, m); err != nil {
			return err
		}
		c.Methods = append(c.Methods, m)
		return nil
	default:
		return p.errf("class %s: expected 'field' or 'method', got %q", c.Name, fields[i])
	}
}

func (p *parser) parseBody(className string, m *classfile.Method) error {
	clear(p.labels)
	p.fixups = p.fixups[:0]
	if n := p.codeLines(); n > 0 {
		m.Code = make([]bytecode.Ins, 0, n)
	}

	nargs := m.Sig.NumArgs()
	if nargs < 0 {
		return p.errf("method %s.%s: bad signature %q", className, m.Name, m.Sig)
	}
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
		if len(fields) == 1 && strings.HasSuffix(fields[0], ":") {
			label := strings.TrimSuffix(fields[0], ":")
			if _, dup := p.labels[label]; dup {
				return p.errf("method %s.%s: duplicate label %q", className, m.Name, label)
			}
			p.labels[label] = len(m.Code)
			p.advance()
			continue
		}
		op, ok := bytecode.OpByName[fields[0]]
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
				p.fixups = append(p.fixups, fixup{len(m.Code), args[0], p.pos + 1})
			} else if len(args) != 0 {
				return p.errf("%s takes no operands", op)
			}
		}
		m.Code = append(m.Code, ins)
		p.advance()
	}
	for _, f := range p.fixups {
		target, ok := p.labels[f.label]
		if !ok {
			return &Error{File: p.file, Line: f.line,
				Msg: fmt.Sprintf("method %s.%s: undefined label %q", className, m.Name, f.label)}
		}
		m.Code[f.insIdx].A = int64(target)
	}
	m.MaxLocals = maxLocal + 1
	return nil
}

// splitNameSig splits "getName()LString;" into name and signature.
func splitNameSig(s string) (string, classfile.Sig, error) {
	paren := strings.IndexByte(s, '(')
	if paren <= 0 {
		return "", "", fmt.Errorf("malformed method name+signature %q", s)
	}
	name, sig := s[:paren], classfile.Sig(s[paren:])
	if !sig.Valid() {
		return "", "", fmt.Errorf("malformed signature %q", sig)
	}
	return name, sig, nil
}

// splitFields splits a line on whitespace, keeping double-quoted strings
// (with Go escape syntax) as single fields and stripping '//' comments. The
// fields are appended to the slice it is given.
func splitFields(fields []string, line string) ([]string, error) {
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t' || line[i] == '\r':
			i++
		case line[i] == '/' && i+1 < len(line) && line[i+1] == '/':
			return fields, nil
		case line[i] == '"':
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string literal")
			}
			fields = append(fields, line[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
				if line[j] == '/' && j+1 < len(line) && line[j+1] == '/' {
					break
				}
				j++
			}
			fields = append(fields, line[i:j])
			i = j
		}
	}
	return fields, nil
}
