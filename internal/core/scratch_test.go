package core_test

import (
	"bytes"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/vm"
)

// A program that fills most of the heap with updatable objects: without a
// scratch region, the DSU collection needs to-space for live objects + old
// copies + new shells and runs out; with one, old copies go to scratch and
// the same update fits.
const scratchApp = `
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

var scratchAppV2 = strings.Replace(scratchApp,
	"class Blob {\n  field a I",
	"class Blob {\n  field z I\n  field a I", 1)

// runScratchScenario builds a tightly-sized heap and applies the update with a
// hand-written transformer: only pairs have old copies for scratch to hold (as
// a move, Blob's default would need 9 words per object and no scratch at all).
func runScratchScenario(t *testing.T, scratchWords int) (*core.Result, *vm.VM, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	// Live: 900 Blob × 8 words + array ~902 + strings/interns. To-space
	// during a non-scratch DSU GC needs live(8) + old(8) + shell(9) per
	// object ≈ 25×900 + array. 16000 words hold the live set comfortably
	// but not the tripled update working set.
	machine, err := vm.New(vm.Options{
		HeapWords: 16000, ScratchWords: scratchWords, Out: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, vm: machine, out: &out, engine: core.NewEngine(machine), editSpec: handWrite}
	v1 := f.load(scratchApp)
	v2 := f.prog(scratchAppV2)
	f.spawn("App")
	// Step past the fill phase (~4500 yield points) into the spin loop so
	// all 900 Blobs are live at update time.
	f.vm.Step(15)
	res, err := f.update("1", v1, v2, "", core.Options{MaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res, machine, &out
}

func TestScratchRegionRelievesToSpacePressure(t *testing.T) {
	// Without scratch: live + old copies + shells exceed to-space.
	res, _, _ := runScratchScenario(t, 0)
	if res.Outcome != core.Failed || res.Err == nil ||
		!strings.Contains(res.Err.Error(), "exhausted") {
		t.Fatalf("without scratch: %v (%v), want space exhaustion", res.Outcome, res.Err)
	}

	// With scratch for the old copies, the same update fits and the
	// program finishes correctly on the new layout.
	res2, machine, out := runScratchScenario(t, 8000)
	if res2.Outcome != core.Applied {
		t.Fatalf("with scratch: %v (%v)", res2.Outcome, res2.Err)
	}
	if res2.Stats.TransformedObjects != 900 {
		t.Fatalf("transformed %d", res2.Stats.TransformedObjects)
	}
	// The scratch region is reclaimed immediately after the update.
	if machine.Heap.ScratchUsed() != 0 {
		t.Fatalf("scratch not reclaimed: %d words", machine.Heap.ScratchUsed())
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

func TestScratchWithForceTransform(t *testing.T) {
	// Force-transform must work when old copies live in scratch: the
	// Holder/Item ordering scenario, scratch-backed.
	var out bytes.Buffer
	machine, err := vm.New(vm.Options{HeapWords: 1 << 16, ScratchWords: 4096, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, vm: machine, out: &out, engine: core.NewEngine(machine)}
	v1 := f.load(cycleV1)
	v2 := f.prog(strings.Replace(cycleV1, "field v I", "field v I\n  field extra I", 1))
	f.spawn("App")
	f.vm.Step(2)
	custom := `
class JvolveTransformers {
  static method jvolveObject(LLink;Lv1_Link;)V {
    load 0
    load 1
    getfield v1_Link.v I
    putfield Link.v I
    load 0
    load 1
    getfield v1_Link.peer LLink;
    putfield Link.peer LLink;
    return
  }
}
`
	res, err := f.update("1", v1, v2, custom, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Applied {
		t.Fatalf("%v (%v)", res.Outcome, res.Err)
	}
	if machine.Heap.ScratchUsed() != 0 {
		t.Fatal("scratch not reclaimed")
	}
}
