package asm

import (
	"reflect"
	"testing"
)

// FuzzAsmRoundTrip checks the assembler/printer pair: any source the
// assembler accepts must print to source that (a) reassembles without
// error, (b) yields structurally identical classes, and (c) is a fixpoint
// of another print→assemble round. Inputs the assembler rejects must be
// rejected without panicking. Seed corpus entries run as ordinary tests
// under plain `go test`; `go test -fuzz=FuzzAsmRoundTrip` explores further.
func FuzzAsmRoundTrip(f *testing.F) {
	f.Add(`
class A {
  field x I
  static field y LObject;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
`)
	f.Add(`
class B extends A {
  private final field tag I
  protected field next LB;

  static method loop(I)I {
    const 0
    store 1
  top:
    load 1
    load 0
    if_icmpge done
    load 1
    const 1
    add
    store 1
    goto top
  done:
    load 1
    return
  }
}
`)
	f.Add(`
class S {
  native static method now()I
  static method greet()LString; {
    ldc "hi \"there\"\n"
    return
  }
  static method arr(I)I {
    load 0
    newarray I
    arraylen
    return
  }
}
`)
	f.Add("class A {\n  method m()V {\n  end:\n    goto end\n  }\n}\n")
	f.Add("not a class at all")
	f.Add("class X {")
	// Fused-superinstruction mnemonics are JIT-internal: OpNamed rejects
	// the whole resolved range, so these must be rejected as unknown ops,
	// never assembled.
	f.Add("class F {\n  method m()V {\n    fconstarith\n    return\n  }\n}\n")
	f.Add("class F {\n  method m()V {\n    floadinvoke\n  }\n}\n")
	f.Add("class F {\n  method m()V {\n    fpad\n    fconstarith2\n  }\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		classes, err := Assemble("fuzz.jva", src)
		if err != nil {
			return // rejected without panicking: fine
		}
		printed := Print(classes)
		again, err := Assemble("roundtrip.jva", printed)
		if err != nil {
			t.Fatalf("printed source does not reassemble: %v\nsource:\n%s", err, printed)
		}
		if !reflect.DeepEqual(classes, again) {
			t.Fatalf("round trip changed classes\noriginal: %#v\nreassembled: %#v\nprinted:\n%s",
				classes, again, printed)
		}
		if printed2 := Print(again); printed2 != printed {
			t.Fatalf("print is not a fixpoint\nfirst:\n%s\nsecond:\n%s", printed, printed2)
		}
	})
}
