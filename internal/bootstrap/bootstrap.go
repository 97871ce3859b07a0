// Package bootstrap holds the classes every VM starts with — Object,
// String and the native-backed System, Thread, Net and Jvolve — and their
// one parse per process. The VM loads them from here, and an update's
// verification resolves names in them from here, so both read the same
// definitions.
package bootstrap

import (
	"sync"

	"govolve/internal/asm"
	"govolve/internal/classfile"
)

// Source is the assembler source of the bootstrap classes. They are
// assembled like any other program, so everything downstream (verifier,
// UPT diffs, disassembly) treats them uniformly. The VM binds the native
// method bodies.
const Source = `
class Object {
  method <init>()V {
    return
  }
}

class String {
  native method length()I
  native method charAt(I)C
  native method equals(LString;)Z
  native method concat(LString;)LString;
  native method substring(II)LString;
  native method indexOf(CI)I
  native method startsWith(LString;)Z
  native method endsWith(LString;)Z
  native method trim()LString;
  native method toLowerCase()LString;
  native method hashCode()I
  native method toInt()I
  native method split(C)[LString;
  native static method fromInt(I)LString;
}

class System {
  native static method print(LString;)V
  native static method println(LString;)V
  native static method printInt(I)V
  native static method time()I
  native static method exit(I)V
}

class Thread {
  native static method spawn(LObject;)V
  native static method sleep(I)V
}

class Net {
  native static method listen(I)I
  native static method accept(I)I
  native static method recvLine(I)LString;
  native static method send(ILString;)V
  native static method close(I)V
  native static method unlisten(I)V
}

class Jvolve {
  native static method forceTransform(LObject;)V
}
`

type parsed struct {
	classes []*classfile.Class
	byName  map[string]*classfile.Class
}

// parse assembles Source once per process: every VM loads the same
// definitions, and nothing downstream writes to a loaded definition (the
// registry clones before it renames).
var parse = sync.OnceValues(func() (*parsed, error) {
	classes, err := asm.Assemble("bootstrap.jva", Source)
	if err != nil {
		return nil, err
	}
	p := &parsed{classes: classes, byName: make(map[string]*classfile.Class, len(classes))}
	for _, c := range classes {
		p.byName[c.Name] = c
	}
	return p, nil
})

// Classes returns the bootstrap definitions in source order.
func Classes() ([]*classfile.Class, error) {
	p, err := parse()
	if err != nil {
		return nil, err
	}
	return p.classes, nil
}

// Lookup returns the bootstrap definition named name, or nil (nil for every
// name if Source failed to parse, which vm.New reports).
func Lookup(name string) *classfile.Class {
	p, err := parse()
	if err != nil {
		return nil
	}
	return p.byName[name]
}
