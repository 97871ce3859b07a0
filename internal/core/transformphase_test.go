package core_test

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// chainV1: three Links a→b→c rooted in a static, each also holding an int
// array and an instance of a class no update touches; a spin (the update
// window); then a report of the head's v or, from v2 on, its depth.
const chainV1 = `
class Pad {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Probe {
  native static method snap()V
}
class Link {
  field v I
  field next LLink;
  field tags [I
  field pad LPad;
  method <init>(ILLink;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Link.v I
    load 0
    load 2
    putfield Link.next LLink;
    load 0
    const 3
    newarray I
    putfield Link.tags [I
    load 0
    new Pad
    dup
    invokespecial Pad.<init>()V
    putfield Link.pad LPad;
    return
  }
}
class App {
  static field head LLink;
  static method main()V {
    new Link
    dup
    const 1
    new Link
    dup
    const 2
    new Link
    dup
    const 3
    null
    invokespecial Link.<init>(ILLink;)V
    invokespecial Link.<init>(ILLink;)V
    invokespecial Link.<init>(ILLink;)V
    putstatic App.head LLink;
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    invokestatic App.report()V
    return
  }
  static method report()V {
    getstatic App.head LLink;
    getfield Link.%REPORT% I
    invokestatic System.printInt(I)V
    return
  }
}
`

// chainTransformer forces its neighbour before reading it (depth = the
// neighbour's depth + 1, so the order is observable), after three forces
// that must do nothing: an array (whose word 1 is its length), null, and an
// object that is half of no pair.
func chainTransformer(old, field string) string {
	return strings.NewReplacer("%OLD%", old, "%F%", field).Replace(`
class JvolveTransformers {
  static method jvolveObject(LLink;L%OLD%;)V {
    invokestatic Probe.snap()V
    load 1
    getfield %OLD%.tags [I
    invokestatic Jvolve.forceTransform(LObject;)V
    null
    invokestatic Jvolve.forceTransform(LObject;)V
    load 1
    getfield %OLD%.pad LPad;
    invokestatic Jvolve.forceTransform(LObject;)V
    load 1
    getfield %OLD%.next LLink;
    invokestatic Jvolve.forceTransform(LObject;)V
    load 0
    load 1
    getfield %OLD%.v I
    putfield Link.v I
    load 0
    load 1
    getfield %OLD%.next LLink;
    putfield Link.next LLink;
    load 0
    load 1
    getfield %OLD%.tags [I
    putfield Link.tags [I
    load 0
    load 1
    getfield %OLD%.pad LPad;
    putfield Link.pad LPad;
    load 0
    const 100
    putfield Link.%F% I
    load 1
    getfield %OLD%.next LLink;
    ifnull done
    load 0
    load 1
    getfield %OLD%.next LLink;
    getfield Link.%F% I
    const 1
    add
    putfield Link.%F% I
  done:
    return
  }
}
`)
}

// TestResidueForceChainResidentThreads: a transformer chain forcing
// neighbours three deep runs on three distinct synchronous threads, a second
// update finds the same three resident (each run under a fresh id), none of
// them stays registered, and forceTransform on an array, on null and on an
// object that is no pair does nothing.
func TestResidueForceChainResidentThreads(t *testing.T) {
	f := newFixture(t, 1<<16)
	var snaps []*vm.Thread
	var ids []int
	var depth int
	f.vm.BindNative("Probe", "snap()V", func(v *vm.VM, th *vm.Thread, _ []rt.Value) (rt.Value, vm.WakeFunc, error) {
		snaps, ids = append(snaps, th), append(ids, th.ID)
		if v.Threads[len(v.Threads)-1] != th {
			t.Errorf("running synchronous thread %d is not the last one registered", th.ID)
		}
		depth = max(depth, len(v.Threads))
		return rt.Value{}, nil, nil
	})
	src1 := strings.Replace(chainV1, "%REPORT%", "v", 1)
	src2 := strings.Replace(strings.Replace(chainV1, "field v I", "field v I\n  field d1 I", 1), "%REPORT%", "d1", 1)
	src3 := strings.Replace(strings.Replace(chainV1, "field v I", "field v I\n  field d1 I\n  field d2 I", 1), "%REPORT%", "d2", 1)
	v1 := f.load(src1)
	f.spawn("App")
	f.vm.Step(2)
	before := len(f.vm.Threads)

	res := f.mustApply("1", v1, f.prog(src2), chainTransformer("v1_Link", "d1"))
	if res.Stats.TransformedObjects != 3 || res.Stats.MovedObjects != 0 {
		t.Fatalf("transformed %d (%d of them moved), want the 3 links as pairs", res.Stats.TransformedObjects, res.Stats.MovedObjects)
	}
	if len(snaps) != 3 || snaps[0] == snaps[1] || snaps[1] == snaps[2] || snaps[0] == snaps[2] {
		t.Fatalf("three nested transformer runs used threads %p, want three distinct ones", snaps)
	}
	if depth != before+3 || len(f.vm.Threads) != before {
		t.Fatalf("registered threads: %d before, %d at the deepest run, %d after; want +3 and back",
			before, depth, len(f.vm.Threads))
	}
	assertRetired(t, f, false)

	first, firstIDs := snaps, ids
	snaps, ids = nil, nil
	f.mustApply("2", f.prog(src2), f.prog(src3), chainTransformer("v2_Link", "d2"))
	if len(snaps) != 3 || snaps[0] != first[0] || snaps[1] != first[1] || snaps[2] != first[2] {
		t.Fatalf("second update ran on threads %p, want the resident %p", snaps, first)
	}
	for i := range ids {
		if ids[i] <= firstIDs[2] {
			t.Fatalf("run %d reused thread id %d (first update's ids %v)", i, ids[i], firstIDs)
		}
	}
	if len(f.vm.Threads) != before {
		t.Fatalf("%d threads registered after the second update, want %d", len(f.vm.Threads), before)
	}
	assertRetired(t, f, false)
	// a was forced to depth 102 = c's 100 + 2: every neighbour transformed first.
	if got := strings.TrimSpace(f.finish()); got != "102" {
		t.Fatalf("head depth = %q, want 102 (neighbours forced first)", got)
	}
}

// microV1 is the paper's Table 1 population (§4.1): two classes of three int
// and three null reference fields; the update adds an int field to Change and
// UPT's generated default transformer copies the rest.
const microV1 = `
class Change {
  field i1 I
  field i2 I
  field i3 I
  field r1 LChange;
  field r2 LChange;
  field r3 LChange;
}
class NoChange {
  field i1 I
  field i2 I
  field i3 I
  field r1 LNoChange;
  field r2 LNoChange;
  field r3 LNoChange;
}
`

// microUpdate pins n objects, half of them Change, behind one array and
// returns a function applying the update with the default transformer — which
// the collector performs as a move while it copies, or, handWritten, the same
// body as an interpreted transformer over pairs. In the concurrent mode the
// pause leaves the pairs to the relocation and arms the read barrier; the
// caller drains.
func microUpdate(tb testing.TB, n int, concurrent bool, rec *obs.Recorder, handWritten bool) (*core.Engine, func() *core.Result) {
	tb.Helper()
	v, err := vm.New(vm.Options{HeapWords: 5 * 9 * n, Concurrent: concurrent, Out: io.Discard, Recorder: rec})
	if err != nil {
		tb.Fatal(err)
	}
	v1, err1 := asm.AssembleProgram("v1.jva", microV1)
	v2, err2 := asm.AssembleProgram("v2.jva", strings.Replace(microV1, "field i1 I", "field i1 I\n  field i4 I", 1))
	if err1 != nil || err2 != nil {
		tb.Fatal(err1, err2)
	}
	if err := v.LoadProgram(v1); err != nil {
		tb.Fatal(err)
	}
	arr, _ := v.Heap.AllocArray(true, n)
	h := v.PushHandle(arr)
	for i := 0; i < n; i++ {
		cls := v.Reg.LookupClass([]string{"Change", "NoChange"}[i%2])
		obj, ok := v.Heap.AllocObject(cls)
		if !ok {
			tb.Fatal("heap too small")
		}
		v.Heap.SetFieldValue(obj, rt.HeaderWords, rt.IntVal(int64(i)))
		v.Heap.SetElem(h.Ref(), i, rt.RefVal(obj))
	}
	spec, err := upt.Prepare("m", v1, v2)
	if err != nil {
		tb.Fatal(err)
	}
	if handWritten {
		handWrite(spec)
	}
	e := core.NewEngine(v)
	return e, func() *core.Result {
		res, err := e.ApplyNow(spec, core.Options{})
		if err != nil || res.Outcome != core.Applied {
			tb.Fatalf("update: %v / %+v", err, res)
		}
		return res
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestResidueTransformZeroAlloc: the per-object path of the transformer phase
// makes no Go allocation. Once a concurrent update's relocation has run dry,
// its forced drain is that path and nothing else (plus one teardown), so its
// allocations over 10 000 objects must not grow with the object count: 0 per
// object with the recorder off — including the recorder label, which was
// built per object before the nil-receiver check — and at most 1 with it on.
func TestResidueTransformZeroAlloc(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name string
		rec  *obs.Recorder
		max  float64
	}{
		{"recorder off", nil, 0.01},
		{"recorder on", obs.NewRecorder(1 << 10), 1},
	} {
		e, apply := microUpdate(t, n, true, tc.rec, true)
		res := apply()
		// The scheduler's poll, without a thread to run: quanta until the
		// relocation finishes and the log adopts every pair it made.
		for e.VM.Heap.RelocArmed() {
			e.VM.Residue.Tick()
		}
		if res.Stats.LazyPending != n/2 || res.Stats.LazyForced != 0 {
			t.Fatalf("%s: relocation left %d pending (%d forced), want %d", tc.name,
				res.Stats.LazyPending, res.Stats.LazyForced, n/2)
		}
		m0 := mallocs()
		if err := e.ForceDrain(); err != nil {
			t.Fatal(err)
		}
		per := float64(mallocs()-m0) / float64(n/2)
		if res.Stats.PairsLogged != n/2 || res.Stats.TransformedObjects != n/2 {
			t.Fatalf("%s: transformed %d of %d pairs, want %d", tc.name,
				res.Stats.TransformedObjects, res.Stats.PairsLogged, n/2)
		}
		if per > tc.max {
			t.Fatalf("%s: %.3f Go allocations per transformed object, want ≤ %v", tc.name, per, tc.max)
		}
		t.Logf("%s: %.4f Go allocations per transformed object", tc.name, per)
	}
}

// BenchmarkTransformPhase: the eager update of 20 000 objects, half updated,
// under the two ways a transformer executes. handwritten builds a pair per
// object and interprets jvolveObject on each; moved is the generated default,
// which the collector performs while it copies, so nothing is left for the
// transformer phase. ns/object is that phase per transformed object (the
// figure the bench of record reports as core.transform_ns_per_object);
// pause-ns/object adds the DSU collection, where the moves went
// (EXPERIMENTS.md E7). allocs/object is the whole update's Go allocations
// (install, collection and teardown included) over the transformed objects.
func BenchmarkTransformPhase(b *testing.B) {
	const n = 20000
	for _, bc := range []struct {
		name        string
		handWritten bool
	}{
		{"handwritten", true},
		{"moved", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var ns, pause, allocs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, apply := microUpdate(b, n, false, nil, bc.handWritten)
				m0 := mallocs()
				b.StartTimer()
				res := apply()
				b.StopTimer()
				s := res.Stats
				if s.TransformedObjects != n/2 || (s.MovedObjects == 0) != bc.handWritten {
					b.Fatalf("transformed %d, moved %d", s.TransformedObjects, s.MovedObjects)
				}
				allocs += float64(mallocs()-m0) / float64(n/2)
				ns += float64(s.PauseTransform.Nanoseconds()) / float64(n/2)
				pause += float64((s.PauseGC + s.PauseTransform).Nanoseconds()) / float64(n/2)
			}
			b.ReportMetric(ns/float64(b.N), "ns/object")
			b.ReportMetric(pause/float64(b.N), "pause-ns/object")
			b.ReportMetric(allocs/float64(b.N), "allocs/object")
		})
	}
}
