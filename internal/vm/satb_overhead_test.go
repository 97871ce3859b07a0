package vm

import (
	"bytes"
	"runtime"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/rt"
)

// storeLoopSrc is the ref-store-heavy analog of dispatchLoopSrc: every
// iteration overwrites two reference fields (the SATB deletion barrier's
// fast path) and one scalar field (the nil-check-only path), with one taken
// backedge. An infinite loop lets the harness pump slices forever.
const storeLoopSrc = `
class Node {
  field next LNode;
  field val I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Hot {
  static field a LNode;
  static field b LNode;
  static method main()V {
    new Node
    dup
    invokespecial Node.<init>()V
    putstatic Hot.a LNode;
    new Node
    dup
    invokespecial Node.<init>()V
    putstatic Hot.b LNode;
    const 0
    store 0
  loop:
    getstatic Hot.a LNode;
    getstatic Hot.b LNode;
    putfield Node.next LNode;
    getstatic Hot.b LNode;
    getstatic Hot.a LNode;
    putfield Node.next LNode;
    getstatic Hot.a LNode;
    load 0
    putfield Node.val I
    load 0
    const 1
    add
    const 1048575
    and
    store 0
    goto loop
  }
}
`

// newStoreDispatchVM builds a VM running the ref-store loop and warms it
// past recompilation, with the SATB barrier in its production steady state:
// present and disarmed.
func newStoreDispatchVM(tb testing.TB) *VM {
	tb.Helper()
	var out bytes.Buffer
	v, err := New(Options{HeapWords: 1 << 14, Out: &out})
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := asm.AssembleProgram("satb.jva", storeLoopSrc)
	if err != nil {
		tb.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		tb.Fatal(err)
	}
	if _, err := v.SpawnMain("Hot"); err != nil {
		tb.Fatal(err)
	}
	v.Step(500)
	return v
}

// BenchmarkSATBDisarmedDispatch measures the store-heavy dispatch loop with
// the barrier disarmed — the state every instruction between updates runs
// in. Compare with BenchmarkSATBArmedDispatch for the armed delta and with
// BenchmarkInterpDispatch for the cost of the stores themselves.
func BenchmarkSATBDisarmedDispatch(b *testing.B) {
	v := newStoreDispatchVM(b)
	b.ReportAllocs()
	start := v.TotalSteps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Step(1)
	}
	b.StopTimer()
	executed := v.TotalSteps - start
	if executed == 0 {
		b.Fatal("no instructions executed")
	}
	b.ReportMetric(float64(executed)/float64(b.N), "instructions/op")
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "instructions/s")
}

// BenchmarkSATBArmedDispatch is the same loop with the deletion barrier
// armed: every overwritten in-snapshot ref is logged and every ref store is
// an atomic. This is the tax the mutator pays only while a concurrent mark
// is in flight. The barrier is re-armed each iteration so the deletion log
// stays bounded; its buffer (and capacity) is reused across re-arms.
func BenchmarkSATBArmedDispatch(b *testing.B) {
	v := newStoreDispatchVM(b)
	buf := make([]rt.Addr, 0, 1<<20)
	b.ReportAllocs()
	start := v.TotalSteps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Heap.ArmSATB(buf)
		v.Step(1)
		buf = v.Heap.DisarmSATB()
	}
	b.StopTimer()
	executed := v.TotalSteps - start
	if executed == 0 {
		b.Fatal("no instructions executed")
	}
	b.ReportMetric(float64(executed)/float64(b.N), "instructions/op")
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "instructions/s")
}

// TestSATBDisarmedZeroAlloc: the disarmed barrier must not add allocations
// to the store-heavy fast path.
func TestSATBDisarmedZeroAlloc(t *testing.T) {
	v := newStoreDispatchVM(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := v.TotalSteps
	allocs := testing.AllocsPerRun(50, func() {
		v.Step(10)
	})
	executed := v.TotalSteps - before
	if executed < 1000 {
		t.Fatalf("fast path barely ran: %d instructions", executed)
	}
	if allocs != 0 {
		t.Fatalf("disarmed-barrier store path allocates: %.1f allocs per 10 slices", allocs)
	}
}

// TestSATBArmedOverheadBound is the dispatch-level companion to the heap
// package's disarmed gate (TestSATBDisarmedStoreOverheadGate, which diffs
// the disarmed store path against the verbatim pre-barrier store on a
// dispatch-shaped loop). The ARMED barrier is not expected to be free —
// it logs every overwritten in-snapshot ref and makes every ref store
// atomic, a real tax (~25% on this worst-case all-stores loop) paid only
// while a concurrent mark is in flight. This bound is a tripwire: if the
// armed path ever drops below half of disarmed throughput, something
// accidentally quadratic (rescanning the log, buffer thrash) crept in.
func TestSATBArmedOverheadBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	disarmed := newStoreDispatchVM(t)
	armed := newStoreDispatchVM(t)
	buf := make([]rt.Addr, 0, 1<<20)

	const (
		slices   = 400
		rounds   = 5
		attempts = 4
		floor    = 0.50 // armed must hold ≥50% of disarmed throughput
	)
	armedRate := func() float64 {
		armed.Heap.ArmSATB(buf)
		r := dispatchRate(t, armed, slices)
		buf = armed.Heap.DisarmSATB()
		return r
	}
	var lastRatio float64
	for attempt := 0; attempt < attempts; attempt++ {
		disBest, armBest := 0.0, 0.0
		for r := 0; r < rounds; r++ {
			// Interleave so clock drift and background load hit both sides.
			if d := dispatchRate(t, disarmed, slices); d > disBest {
				disBest = d
			}
			if a := armedRate(); a > armBest {
				armBest = a
			}
		}
		lastRatio = armBest / disBest
		if lastRatio >= floor {
			return
		}
	}
	t.Fatalf("armed-barrier dispatch at %.1f%% of disarmed after %d attempts, want ≥%.0f%%",
		lastRatio*100, attempts, floor*100)
}
