package bench

import (
	"fmt"
	"io"
	"time"

	"govolve/internal/asm"
	"govolve/internal/rt"
	"govolve/internal/vm"
)

// idleResidue arms the VM's on-touch read barrier with nothing to drain.
var idleResidue = &vm.DSUResidue{
	OnTouch:   true,
	Transform: func(rt.Addr) error { return nil },
	Tick:      func() {},
	Force:     func() error { return nil },
}

// Ablation: the paper's §5 argues that lazy-update VMs (JDrums, DVM) pay a
// persistent steady-state cost because every object dereference goes
// through a check — JDrums "traps all object pointer dereferences", and DVM
// pays roughly 10% over an interpreter. JVOLVE's eager GC-based design pays
// nothing. The lazy design's per-dereference work is the VM's own on-touch
// placement: with a DSU residue installed and nothing pending, every
// dereference pays the hook check plus the header-bit test — what a lazy VM
// actually pays between updates. This experiment measures a
// field-access-heavy program (pointer-chasing over a linked list, the worst
// case for a per-dereference tax) under both designs.

const ablationProgram = `
class Node {
  field next LNode;
  field val I
  method <init>(LNode;I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Node.next LNode;
    load 0
    load 2
    putfield Node.val I
    return
  }
}
class Chase {
  static field head LNode;
  static method <clinit>()V {
    null
    store 0
    const 0
    store 1
  build:
    load 1
    const 400
    if_icmpge built
    new Node
    dup
    load 0
    load 1
    invokespecial Node.<init>(LNode;I)V
    store 0
    load 1
    const 1
    add
    store 1
    goto build
  built:
    load 0
    putstatic Chase.head LNode;
    return
  }
  static method sweep()I {
    const 0
    store 0
    getstatic Chase.head LNode;
    store 1
  walk:
    load 1
    ifnull done
    load 0
    load 1
    getfield Node.val I
    add
    store 0
    load 1
    getfield Node.next LNode;
    store 1
    goto walk
  done:
    load 0
    return
  }
  static method main()V {
    const 0
    store 0
  rounds:
    load 0
    const 1000000
    if_icmpge done
    invokestatic Chase.sweep()I
    pop
    load 0
    const 1
    add
    store 0
    goto rounds
  done:
    return
  }
}
`

// AblationResult compares the two designs on the pointer-chasing workload.
type AblationResult struct {
	Eager       Summary // million interpreted instructions per second
	Lazy        Summary
	SlowdownPct float64
}

// RunAblation measures both configurations, interleaved, with a warmup run
// per configuration discarded.
func RunAblation(_ interface{}, runs int, duration time.Duration, progress io.Writer) (*AblationResult, error) {
	if runs <= 0 {
		runs = 5
	}
	if duration <= 0 {
		duration = 300 * time.Millisecond
	}
	prog, err := asm.AssembleProgram("chase.jva", ablationProgram)
	if err != nil {
		return nil, err
	}
	measureOnce := func(armed bool) (float64, error) {
		machine, err := vm.New(vm.Options{HeapWords: 1 << 16, Out: io.Discard})
		if err != nil {
			return 0, err
		}
		if armed {
			machine.Residue = idleResidue
		}
		if err := machine.LoadProgram(prog); err != nil {
			return 0, err
		}
		if _, err := machine.SpawnMain("Chase"); err != nil {
			return 0, err
		}
		machine.Step(20) // warm the code paths
		start := machine.TotalSteps
		t0 := time.Now()
		for time.Since(t0) < duration {
			if machine.Step(50) == 0 {
				break
			}
		}
		elapsed := time.Since(t0).Seconds()
		mips := float64(machine.TotalSteps-start) / 1e6 / elapsed
		return mips, nil
	}

	var eager, lazy []float64
	// One discarded warmup per configuration levels out process effects.
	if _, err := measureOnce(false); err != nil {
		return nil, err
	}
	if _, err := measureOnce(true); err != nil {
		return nil, err
	}
	for r := 0; r < runs; r++ {
		e, err := measureOnce(false)
		if err != nil {
			return nil, err
		}
		l, err := measureOnce(true)
		if err != nil {
			return nil, err
		}
		eager = append(eager, e)
		lazy = append(lazy, l)
		if progress != nil {
			fmt.Fprintf(progress, ".")
		}
	}
	if progress != nil {
		fmt.Fprintln(progress)
	}
	res := &AblationResult{Eager: Summarize(eager), Lazy: Summarize(lazy)}
	if res.Eager.Median > 0 {
		res.SlowdownPct = 100 * (1 - res.Lazy.Median/res.Eager.Median)
	}
	return res, nil
}

// PrintAblation renders the comparison.
func PrintAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintln(w, "Ablation: eager GC-based updates (JVOLVE) vs per-dereference checks (JDrums/DVM style)")
	fmt.Fprintln(w, "workload: pointer-chasing linked-list sweeps (field-access dominated)")
	fmt.Fprintf(w, "%-44s %10.1f Minstr/s (q1 %.1f, q3 %.1f)\n", "eager (no steady-state checks)", r.Eager.Median, r.Eager.Q1, r.Eager.Q3)
	fmt.Fprintf(w, "%-44s %10.1f Minstr/s (q1 %.1f, q3 %.1f)\n", "lazy-style (on-touch barrier armed)", r.Lazy.Median, r.Lazy.Q1, r.Lazy.Q3)
	fmt.Fprintf(w, "lazy design slowdown: %.1f%%\n", r.SlowdownPct)
}
