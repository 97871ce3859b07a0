package vm

import (
	"fmt"
	"sync"

	"govolve/internal/asm"
	"govolve/internal/classfile"
)

// BootstrapSource is the assembler source of the bootstrap classes. They are
// assembled like any other program, so everything downstream (verifier,
// UPT diffs, disassembly) treats them uniformly. Native method bodies are
// bound in registerNatives.
const BootstrapSource = `
class Object {
  method <init>()V {
    return
  }
}

class String {
  private field chars [C

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

// bootstrapClasses parses the bootstrap source, once per process: every VM
// loads the same definitions, and nothing downstream writes to a loaded
// definition (the registry clones before it renames).
var bootstrapClasses = sync.OnceValues(func() ([]*classfile.Class, error) {
	return asm.Assemble("bootstrap.jva", BootstrapSource)
})

// bootstrap loads the bootstrap classes and binds natives.
func (v *VM) bootstrap() error {
	classes, err := bootstrapClasses()
	if err != nil {
		return fmt.Errorf("vm: bootstrap: %w", err)
	}
	for _, def := range classes {
		cls, err := v.Reg.Load(def)
		if err != nil {
			return fmt.Errorf("vm: bootstrap: %w", err)
		}
		for _, m := range cls.DeclaredMethods() {
			m.Pinned = true
		}
		switch cls.Name {
		case "Object":
			v.objectCls = cls
		case "String":
			v.strCls = cls
			f := cls.Field("chars")
			if f == nil {
				return fmt.Errorf("vm: bootstrap String has no chars field")
			}
			v.strCharsOff = f.Offset
		}
	}
	v.registerNatives()
	return nil
}
