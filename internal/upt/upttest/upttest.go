// Package upttest holds what tests of the update pipeline share.
package upttest

import (
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/upt"
)

// HandWrite makes every object transformer of spec a hand-written one (see
// HandWriteMethod): the update then builds a shell + old-copy pair per instance
// and interprets jvolveObject on each — the path a test about pairs, scratch,
// pending pairs or the resident transformer thread means to exercise, now that a
// generated default is performed by the collector.
func HandWrite(spec *upt.Spec) {
	for _, m := range spec.Transformers.Methods {
		if m.Name == "jvolveObject" {
			HandWriteMethod(m)
		}
	}
}

// HandWriteMethod puts a nop before m's final return. The body computes what
// it computed, and is no longer the pure field copy upt.Spec.ObjectMoves (or
// ClassMoves) accepts, so it runs as bytecode.
func HandWriteMethod(m *classfile.Method) {
	if n := len(m.Code); n > 0 {
		m.Code = append(m.Code[:n-1:n-1], bytecode.Ins{Op: bytecode.NOP}, m.Code[n-1])
	}
}
