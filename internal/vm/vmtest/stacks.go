// Package vmtest is test support for code that drives a vm.VM.
package vmtest

import (
	"fmt"

	"govolve/internal/vm"
)

// WatchStacks holds the compiler's operand-stack bound to a run: it takes
// v.OnFrame, notes the capacity of every frame's operand stack when its slots
// are laid out, and the returned check reports the first frame whose capacity
// differs later — live or dead, since a popped frame's header keeps its last
// Stack — unless an OSR moved the frame to a larger record. The interpreter
// pushes with append, so a bound that is too small shows up exactly so, as a
// regrown stack. Frames already on a thread's stack
// are watched from here on. Frames off every thread's stack are forgotten once
// checked, so a long run does not pin its garbage.
func WatchStacks(v *vm.VM) (check func() error) {
	seated := make(map[*vm.Frame]int)
	// moved reports whether f's operand stack is the slot run of another,
	// fresh record: an OSR that needed more room re-seated f there.
	moved := func(f *vm.Frame) bool {
		for nf, c := range seated {
			if nf != f && c > 0 && c == cap(f.Stack) && &nf.Stack[:1][0] == &f.Stack[:1][0] {
				return true
			}
		}
		return false
	}
	for _, t := range v.Threads {
		for _, f := range t.Frames {
			seated[f] = cap(f.Stack)
		}
	}
	var first error
	next := 1 << 16
	sweep := func() {
		live := make(map[*vm.Frame]bool)
		for _, t := range v.Threads {
			for _, f := range t.Frames {
				live[f] = true
			}
		}
		for f, c := range seated {
			if cap(f.Stack) != c && moved(f) {
				seated[f] = cap(f.Stack)
			} else if cap(f.Stack) != c && first == nil {
				name, bound := "an idle frame", 0
				if f.CM != nil {
					name, bound = f.Method().FullName()+" ("+f.CM.Level.String()+")", f.CM.MaxStack
				}
				first = fmt.Errorf("operand stack of %s regrown: room for %d at layout, %d now (MaxStack %d)",
					name, c, cap(f.Stack), bound)
			}
		}
		for f := range seated {
			if !live[f] {
				delete(seated, f)
			}
		}
		next = max(1<<16, 2*len(seated))
	}
	v.OnFrame = func(f *vm.Frame) {
		seated[f] = cap(f.Stack)
		if len(seated) >= next {
			sweep()
		}
	}
	return func() error {
		sweep()
		return first
	}
}
