package vm

import (
	"io"
	"runtime"
	"testing"

	"govolve/internal/asm"
)

// The native boundary's own layer benchmarks and allocation guards: what a
// native call costs on top of dispatch, and what the String runtime costs on
// the webserver's request mix. Both loops are infinite and frame-free (a
// native call pushes no activation), so the harness pumps slices at will.

// nativeCallSrc calls the cheapest native there is, so the number is the call
// path: binding load, argument slice, result push.
const nativeCallSrc = `
class Hot {
  static method main()V {
  loop:
    invokestatic System.time()I
    pop
    goto loop
  }
}
`

// readOnlyNativesSrc runs the eight natives that read a String without
// building one.
const readOnlyNativesSrc = `
class Hot {
  static method main()V {
  loop:
    ldc "  GET /docs/index.html 1024 "
    store 0
    load 0
    invokevirtual String.length()I
    pop
    load 0
    const 7
    invokevirtual String.charAt(I)C
    pop
    load 0
    ldc "  GET /docs/index.html 1024 "
    invokevirtual String.equals(LString;)Z
    pop
    load 0
    const 46
    const 0
    invokevirtual String.indexOf(CI)I
    pop
    load 0
    ldc "  GET"
    invokevirtual String.startsWith(LString;)Z
    pop
    load 0
    ldc "1024 "
    invokevirtual String.endsWith(LString;)Z
    pop
    load 0
    invokevirtual String.hashCode()I
    pop
    ldc " 1024 "
    invokevirtual String.toInt()I
    pop
    goto loop
  }
}
`

// buildNativesSrc is the two builders the request path leans on hardest.
const buildNativesSrc = `
class Hot {
  static method main()V {
  loop:
    ldc "GET /docs/index.html"
    ldc " HTTP/1.0"
    invokevirtual String.concat(LString;)LString;
    const 4
    const 20
    invokevirtual String.substring(II)LString;
    pop
    goto loop
  }
}
`

// newNativeLoopVM runs src's Hot.main past warmup on a heap of the given
// size.
func newNativeLoopVM(tb testing.TB, src string, heapWords int) *VM {
	tb.Helper()
	v, err := New(Options{HeapWords: heapWords, Out: io.Discard})
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := asm.AssembleProgram("native.jva", src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		tb.Fatal(err)
	}
	if _, err := v.SpawnMain("Hot"); err != nil {
		tb.Fatal(err)
	}
	v.Step(50)
	if th := v.Threads[0]; th.Err != nil {
		tb.Fatalf("native loop died: %v", th.Err)
	}
	return v
}

// benchNativeLoop pumps slices and reports the time per loop iteration, given
// the iteration's instruction count (step accounting is tier-independent).
func benchNativeLoop(b *testing.B, v *VM, insPerIter int64, unit string) {
	b.Helper()
	start := v.TotalSteps
	benchDispatch(b, v)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((v.TotalSteps-start)/insPerIter), unit)
}

// BenchmarkNativeCall: back-to-back System.time() calls, three instructions
// per call.
func BenchmarkNativeCall(b *testing.B) {
	benchNativeLoop(b, newNativeLoopVM(b, nativeCallSrc, 1<<14), 3, "ns/call")
}

// BenchmarkStringNatives: the webserver's string mix, 40 instructions and 10
// String natives per request line, guest collections included (the heap
// holds about a hundred lines' worth of garbage).
func BenchmarkStringNatives(b *testing.B) {
	benchNativeLoop(b, newNativeLoopVM(b, StringMixSrc, 1<<14), 40, "ns/line")
}

// TestNativeCallZeroAlloc: a native call, the eight read-only String natives
// and the concat/substring builders perform no Go allocation — the binding is
// a cached pointer, operands are read where they lie, results are copied heap
// to heap. The builders run on a heap large enough that no guest collection
// falls inside the measured window (the collector's own bookkeeping is not
// the native boundary's): a slice is 400 loop iterations, 22 000 words of
// concat/substring garbage.
func TestNativeCallZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name, src string
		heapWords int
	}{
		{"call path", nativeCallSrc, 1 << 14},
		{"read-only natives", readOnlyNativesSrc, 1 << 14},
		{"concat+substring", buildNativesSrc, 1 << 22},
	} {
		v := newNativeLoopVM(t, c.src, c.heapWords)
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			before, collections := v.TotalSteps, v.GC.Collections
			allocs := testing.AllocsPerRun(5, func() { v.Step(10) })
			if executed := v.TotalSteps - before; executed < 1000 {
				t.Fatalf("%s: loop barely ran: %d instructions", c.name, executed)
			}
			if v.GC.Collections != collections {
				t.Fatalf("%s: a guest collection ran inside the measured window; enlarge the heap", c.name)
			}
			if allocs != 0 {
				t.Errorf("%s: %.1f Go allocations per 10 slices, want 0", c.name, allocs)
			}
		}()
	}
}
