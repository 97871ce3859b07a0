package core_test

import (
	"bytes"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/vm"
)

// A program that fills most of the heap with updatable objects. A DSU
// collection needs to-space for live objects + new shells, and somewhere for
// the old copies: in to-space behind their shells that would not fit, but
// from-space's unallocated tail (paper §3.5) holds them, so the update fits
// on default options — unless from-space is nearly full at the update.
const tailApp = `
class Blob {
  field a I
  field b I
  field c I
  field d I
  field e I
  field f I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Blob.a I
    return
  }
}
class App {
  static field arr [LBlob;
  static method main()V {
    const 900
    newarray LBlob;
    putstatic App.arr [LBlob;
    const 0
    store 0
  fill:
    load 0
    const 900
    if_icmpge spin
    getstatic App.arr [LBlob;
    load 0
    new Blob
    dup
    load 0
    invokespecial Blob.<init>(I)V
    aset
    load 0
    const 1
    add
    store 0
    goto fill
  spin:
    const 0
    store 1
  loop:
    load 1
    const 60000
    if_icmpge done
    load 1
    const 1
    add
    store 1
    goto loop
  done:
    getstatic App.arr [LBlob;
    const 899
    aget
    getfield Blob.a I
    invokestatic System.printInt(I)V
    return
  }
}
`

var tailAppV2 = strings.Replace(tailApp,
	"class Blob {\n  field a I",
	"class Blob {\n  field z I\n  field a I", 1)

// runTailScenario builds a tightly-sized heap and applies the update with a
// hand-written transformer: only pairs have old copies (as a move, Blob's
// default would need 9 words per object and no old copy at all). With a
// positive tail, dead data fills from-space before the update until only that
// many words are free: the tail the DSU collection gets.
func runTailScenario(t *testing.T, tail int) (*core.Result, *vm.VM, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	// Live: 900 Blob × 8 words + array ~902 + strings/interns. To-space
	// during the DSU collection needs live(8) + shell(9) per object, and
	// another 8 for each old copy the tail cannot take: ≈ 25×900 + array
	// with none in the tail. 16000 words hold the live set comfortably but
	// not that tripled working set.
	machine, err := vm.New(vm.Options{HeapWords: 16000, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, vm: machine, out: &out, engine: core.NewEngine(machine), editSpec: handWrite}
	v1 := f.load(tailApp)
	v2 := f.prog(tailAppV2)
	f.spawn("App")
	// Step past the fill phase (~4500 yield points) into the spin loop so
	// all 900 Blobs are live at update time.
	f.vm.Step(15)
	if tail > 0 {
		if _, ok := machine.Heap.AllocArray(false, machine.Heap.FreeWords()-tail-2); !ok {
			t.Fatal("no room for the garbage")
		}
	}
	res, err := f.update("1", v1, v2, "", core.Options{MaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res, machine, &out
}

// TestTailRelievesToSpacePressure: on default options the old copies go to
// from-space's tail, 900 × 8 words of them, and the update fits where old
// copies in to-space would exhaust it; the program finishes on the new layout.
func TestTailRelievesToSpacePressure(t *testing.T) {
	res, machine, out := runTailScenario(t, 0)
	if res.Outcome != core.Applied {
		t.Fatalf("%v (%v)", res.Outcome, res.Err)
	}
	if res.Stats.TransformedObjects != 900 || res.Stats.TailWords != 900*8 {
		t.Fatalf("transformed %d objects, %d old-copy words in the tail; want 900 and %d",
			res.Stats.TransformedObjects, res.Stats.TailWords, 900*8)
	}
	if err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, th := range machine.Threads {
		if th.Err != nil {
			t.Fatalf("thread: %v", th.Err)
		}
	}
	if got := strings.TrimSpace(out.String()); got != "899" {
		t.Fatalf("output = %q, want 899 (field shifted by update)", got)
	}
}

// TestTailOverflowsIntoToSpace: with from-space nearly full at the update the
// tail holds a few old copies, the rest overflow into to-space behind their
// shells, and the update runs out of space exactly as it did when every old
// copy went to to-space: the tail never makes an update fail that fit before.
func TestTailOverflowsIntoToSpace(t *testing.T) {
	res, machine, _ := runTailScenario(t, 64)
	if res.Outcome != core.Failed || res.Err == nil || !strings.Contains(res.Err.Error(), "exhausted") {
		t.Fatalf("%v (%v), want space exhaustion", res.Outcome, res.Err)
	}
	if machine.FatalHeap == nil {
		t.Fatal("a collection that ran out of space left the heap usable")
	}
}
