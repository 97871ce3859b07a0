package asm

import (
	"testing"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

const sample = `
// A sample pair of classes.
class Point extends Object {
  private field x I
  private field y I
  static field origin LPoint;

  method <init>(II)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Point.x I
    load 0
    load 2
    putfield Point.y I
    return
  }

  method manhattan()I {
    load 0
    getfield Point.x I
    load 0
    getfield Point.y I
    add
    return
  }
}

class Util {
  static method clamp(I)I {
    load 0
    const 0
    if_icmpge ok
    const 0
    return
  ok:
    load 0
    return
  }
}
`

func TestAssembleSample(t *testing.T) {
	classes, err := Assemble("sample.jva", sample)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(classes))
	}
	point := classes[0]
	if point.Name != "Point" || point.Super != "Object" {
		t.Fatalf("bad class header: %+v", point)
	}
	if got := len(point.Fields); got != 3 {
		t.Fatalf("got %d fields, want 3", got)
	}
	if f := point.Field("x"); f == nil || f.Access != classfile.Private || f.Static {
		t.Fatalf("field x: %+v", f)
	}
	if f := point.Field("origin"); f == nil || !f.Static || f.Desc != "LPoint;" {
		t.Fatalf("field origin: %+v", f)
	}
	init := point.Method("<init>", "(II)V")
	if init == nil {
		t.Fatal("missing <init>(II)V")
	}
	if init.MaxLocals != 3 {
		t.Fatalf("init MaxLocals = %d, want 3", init.MaxLocals)
	}
	clamp := classes[1].Method("clamp", "(I)I")
	if clamp == nil {
		t.Fatal("missing clamp")
	}
	// The branch at instruction 2 must target the label "ok" (index 5).
	if clamp.Code[2].Op != bytecode.IF_ICMPGE || clamp.Code[2].A != 5 {
		t.Fatalf("branch resolution wrong: %v", clamp.Code[2])
	}
}

func TestDefaultSuperIsObject(t *testing.T) {
	classes, err := Assemble("t.jva", "class A {\n method m()V {\n return\n }\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if classes[0].Super != "Object" {
		t.Fatalf("Super = %q, want Object", classes[0].Super)
	}
}

func TestRoundTripThroughString(t *testing.T) {
	classes, err := Assemble("sample.jva", sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range classes {
		src := c.String()
		back, err := Assemble("roundtrip.jva", src)
		if err != nil {
			t.Fatalf("reassemble %s: %v\nsource:\n%s", c.Name, err, src)
		}
		b := back[0]
		if b.Name != c.Name || b.Super != c.Super || len(b.Fields) != len(c.Fields) ||
			len(b.Methods) != len(c.Methods) {
			t.Fatalf("round trip changed shape of %s", c.Name)
		}
		for i, m := range c.Methods {
			if !bytecode.CodeEqual(m.Code, b.Methods[i].Code) {
				t.Fatalf("round trip changed code of %s.%s:\nbefore:\n%s\nafter:\n%s",
					c.Name, m.Name, bytecode.Disassemble(m.Code), bytecode.Disassemble(b.Methods[i].Code))
			}
		}
	}
}

func TestStringOperands(t *testing.T) {
	src := `
class S {
  static method m()V {
    ldc "hello world // not a comment"
    invokestatic System.println(LString;)V
    trap "with \"escape\""
  }
}
`
	classes, err := Assemble("s.jva", src)
	if err != nil {
		t.Fatal(err)
	}
	code := classes[0].Methods[0].Code
	if code[0].Str != "hello world // not a comment" {
		t.Errorf("ldc operand = %q", code[0].Str)
	}
	if code[2].Str != `with "escape"` {
		t.Errorf("trap operand = %q", code[2].Str)
	}
}

// TestErrors pins the whole "file:line: msg" text of every rejection: where
// a line number comes from (the offending line, the line after a class's
// closing brace for what Validate finds, one past the last line at end of
// file) is part of the assembler's contract.
func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown op", "class A {\n method m()V {\n frob\n }\n}", `e.jva:3: method A.m: unknown opcode "frob"`},
		{"undefined label", "class A {\n method m()V {\n goto nowhere\n return\n }\n}", `e.jva:3: method A.m: undefined label "nowhere"`},
		{"duplicate label", "class A {\n method m()V {\n x:\n x:\n return\n }\n}", `e.jva:4: method A.m: duplicate label "x"`},
		{"bad signature", "class A {\n method m(Q)V {\n return\n }\n}", `e.jva:2: class A: malformed signature "(Q)V"`},
		{"missing brace", "class A {\n method m()V\n return\n }\n}", `e.jva:2: class A: method m: expected '{'`},
		{"native with body", "class A {\n native method m()V {\n }\n}", `e.jva:2: class A: native method m takes no body`},
		{"field arity", "class A {\n field x\n}", `e.jva:2: class A: field wants 'field NAME DESC'`},
		{"eof in class", "class A {\n field x I\n", `e.jva:4: class A: unexpected end of file`},
		{"bad int", "class A {\n method m()V {\n const zz\n return\n }\n}", `e.jva:3: const: bad integer "zz"`},
		{"unterminated string", "class A {\n method m()V {\n ldc \"abc\n return\n }\n}", `e.jva:3: unterminated string literal`},
		{"empty file", "   \n\t\n", `e.jva:1: no classes in source`},
		{"bad field descriptor", "class A {\n field y Q\n}", `e.jva:4: classfile: A.y: bad descriptor "Q"`},
		{"duplicate field", "class A {\n field x I\n static field x LObject;\n}\n", `e.jva:5: classfile: A: duplicate field x`},
		{"duplicate method", "class A {\n method m()V {\n return\n }\n method m()V {\n return\n }\n}\n", `e.jva:9: classfile: A: duplicate method m()V`},
		{"crlf", "class A {\r\n field x I\r\n method m()V {\r\n x:\r\n load 0\r\n ifeq x\r\n frob\r\n }\r\n}\r\n", `e.jva:7: method A.m: unknown opcode "frob"`},
		{"crlf branch past end", "class A {\r\n method m()V {\r\n goto x\r\n return\r\n x:\r\n }\r\n}\r\n", `e.jva:8: classfile: A.m: branch at 0 targets 2 (code length 2)`},
		{"eof on last line", "class A {\n method m()V {\n return\n }\n}\nclass B {", `e.jva:7: class B: unexpected end of file`},
		{"eof after last member", "class A {\n method m()V {\n return\n }\n}\nclass B { \n field y Q", `e.jva:8: class B: unexpected end of file`},
		{"junk on last line", "class A {\n method m()V {\n return\n }\n}\nfoo", `e.jva:6: expected 'class', got "foo"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("e.jva", c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if err.Error() != c.want {
				t.Fatalf("error %q, want %q", err, c.want)
			}
		})
	}
}

func TestMaxLocalsComputation(t *testing.T) {
	src := `
class A {
  method m(I)I {
    load 1
    store 7
    load 7
    return
  }
  static method s(II)I {
    load 0
    load 1
    add
    return
  }
}
`
	classes, err := Assemble("l.jva", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := classes[0].Methods[0].MaxLocals; got != 8 {
		t.Errorf("instance MaxLocals = %d, want 8", got)
	}
	if got := classes[0].Methods[1].MaxLocals; got != 2 {
		t.Errorf("static MaxLocals = %d, want 2", got)
	}
}
