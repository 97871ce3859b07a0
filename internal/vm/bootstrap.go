package vm

import (
	"fmt"

	"govolve/internal/bootstrap"
)

// BootstrapSource is the assembler source of the bootstrap classes
// (bootstrap.Source). Native method bodies are bound in registerNatives.
const BootstrapSource = bootstrap.Source

// bootstrap loads the bootstrap classes and binds natives.
func (v *VM) bootstrap() error {
	classes, err := bootstrap.Classes()
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
		}
	}
	v.registerNatives()
	return nil
}
