package vm

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"govolve/internal/rt"
)

// TestFrameRecordsAreFresh: records come out of chunks, and a chunk is carved
// front to back exactly once — so every record newFrame returns is zero (pc,
// barrier, locals, the whole operand-stack window) however dirty the records
// before it were left, and no record or slot run is handed out twice, across
// more than three chunks of each shape and with reseats (which take a record
// of another shape for its slots alone) mixed in.
func TestFrameRecordsAreFresh(t *testing.T) {
	v := new(VM)
	cm := new(rt.CompiledMethod)
	headers := make(map[*Frame]bool)
	slots := make(map[*rt.Value]bool)
	// claim marks every slot of f — locals and the whole operand-stack window —
	// as handed out, failing on one that already was, and returns them.
	claim := func(f *Frame) []*rt.Value {
		t.Helper()
		var run []*rt.Value
		for i := range f.Locals {
			run = append(run, &f.Locals[i])
		}
		for i := range f.Stack[:cap(f.Stack)] {
			run = append(run, &f.Stack[:cap(f.Stack)][i])
		}
		for i, s := range run {
			if slots[s] {
				t.Fatalf("slot %d was handed out before", i)
			}
			slots[s] = true
		}
		return run
	}
	check := func(f *Frame, nlocals, nstack int) {
		t.Helper()
		if f.PC != 0 || f.Barrier || f.CM != cm {
			t.Fatalf("record is not fresh: pc %d, barrier %v, cm %p", f.PC, f.Barrier, f.CM)
		}
		if len(f.Locals) != nlocals || cap(f.Locals) != nlocals || len(f.Stack) != 0 || cap(f.Stack) < nstack {
			t.Fatalf("record laid out as %d/%d locals, %d/%d operands; want %d locals, empty stack with room for %d",
				len(f.Locals), cap(f.Locals), len(f.Stack), cap(f.Stack), nlocals, nstack)
		}
		for i, s := range claim(f) {
			if *s != (rt.Value{}) {
				t.Fatalf("slot %d of a fresh record holds %+v", i, *s)
			}
			*s = rt.RefVal(rt.Addr(0xdead)) // leave it as dirty as a frame can be
		}
		if headers[f] {
			t.Fatal("record handed out twice")
		}
		headers[f] = true
		f.PC, f.Barrier, f.Stack = 7, true, f.Stack[:cap(f.Stack)]
	}
	for _, shape := range []struct{ nlocals, nstack int }{{2, 2}, {3, 5}, {6, 10}} {
		for i := 0; i < 3*frameChunk+5; i++ {
			f := v.newFrame(cm, shape.nlocals, shape.nstack)
			check(f, shape.nlocals, shape.nstack)
			if i%7 == 3 && shape.nlocals+shape.nstack <= 8 { // grow it into the next shape's chunk
				f.Stack = f.Stack[:1]
				v.reseat(f, 2*shape.nlocals, 2*shape.nstack)
				if !headers[f] || f.PC != 7 || !f.Barrier {
					t.Fatal("reseat moved or reset the header")
				}
				if len(f.Stack) != 1 || f.Stack[0] != rt.RefVal(rt.Addr(0xdead)) || f.Locals[0] != rt.RefVal(rt.Addr(0xdead)) {
					t.Fatal("reseat lost locals or live operands")
				}
				claim(f) // its new slots: no later record may hold them
			}
		}
	}
	if len(headers) != 3*(3*frameChunk+5) {
		t.Fatalf("%d distinct records, want %d", len(headers), 3*(3*frameChunk+5))
	}
}

// heldSrc parks a thousand threads in one frame each — W.run, asleep — with
// three chunks' worth of calls (the %d) between one spawn and the next, so that
// every parked record lies in a chunk of its own: the most a parked frame can
// pin. main then goes six calls deep, comes back and parks too.
const heldSrc = `
class W {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    const 100000000
    invokestatic Thread.sleep(I)V
    return
  }
}
class K {
  static method f(I)I {
    load 0
    const 1
    add
    return
  }
  static method deep(I)I {
    load 0
    ifeq done
    load 0
    const 1
    sub
    invokestatic K.deep(I)I
    return
  done:
    const 0
    return
  }
  static method main()V {
    const 0
    store 0
  outer:
    load 0
    const 1000
    if_icmpge parked
    new W
    dup
    invokespecial W.<init>()V
    invokestatic Thread.spawn(LObject;)V
    const 0
    store 1
  inner:
    load 1
    const %d
    if_icmpge next
    load 1
    invokestatic K.f(I)I
    pop
    load 1
    const 1
    add
    store 1
    goto inner
  next:
    load 0
    const 1
    add
    store 0
    goto outer
  parked:
    const 6
    invokestatic K.deep(I)I
    pop
    const 100000000
    invokestatic Thread.sleep(I)V
    return
  }
}
`

// TestHeldFramePinsOneChunk: records are not reused and not pooled, so what a
// long-lived frame keeps from Go's collector is its own chunk and nothing else
// — with 1 000 threads parked in one frame each, every one in a different
// chunk, and well over 100 000 calls made and returned around them, the live Go heap
// grows by no more than 1 000 chunks. And a stack that has been deeper holds
// no pointer above its live frames: pop clears the slot it leaves.
func TestHeldFramePinsOneChunk(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, fmt.Sprintf(heldSrc, 3*frameChunk))
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	records := 0
	v.OnFrame = func(*Frame) { records++ }
	main, err := v.SpawnMain("K")
	if err != nil {
		t.Fatal(err)
	}
	v.Step(1 << 30) // until every thread sleeps
	v.OnFrame = nil
	if len(v.Threads) != 1001 || records < 100000 {
		t.Fatalf("%d threads and %d records, want 1001 and at least 100000", len(v.Threads), records)
	}
	for _, th := range v.Threads {
		if th.State != Blocked || len(th.Frames) != 1 {
			t.Fatalf("thread %s: %v at depth %d (error %v), want parked at depth 1", th.Name, th.State, len(th.Frames), th.Err)
		}
	}
	for i, f := range main.Frames[1:cap(main.Frames)] {
		if f != nil {
			t.Fatalf("main came back from depth 7 and its stack still points at the frame of depth %d", i+2)
		}
	}
	grew := int64(liveHeap() - before)
	chunk := int64(unsafe.Sizeof(record[[4]rt.Value]{})) * frameChunk
	const slack = 1 << 20 // 1 001 Thread records, the scheduler's lists, size-class rounding
	t.Logf("live Go heap grew %d KB over %d records; 1000 chunks are %d KB", grew>>10, records, 1000*chunk>>10)
	if most := 1000*chunk*9/8 + slack; grew > most {
		t.Fatalf("live Go heap grew %d bytes with 1000 frames held, want at most %d: returned records are being kept", grew, most)
	}
	runtime.KeepAlive(v)
}
