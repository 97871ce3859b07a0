package gc

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// refCollectSerial is the closure-based serial Cheney loop the kernel
// replaced, kept as the reference the kernel is held to word for word: every
// slot boxed into an rt.Value and moved through the barrier-checked
// accessors, the class resolved per use, RefMap walked entry by entry. Only
// heap.Copy/ScratchCopy, which left the heap with the loop, are spelled out.
func refCollectSerial(c *Collector, roots Roots, dsu bool) (*Result, error) {
	h := c.Heap
	res := &Result{}
	h.Flip()
	copyTo := func(src rt.Addr, size int) (rt.Addr, bool) {
		if size > h.FreeWords() {
			return 0, false
		}
		to, _ := h.Alloc(size)
		h.CopyWords(to, src, size)
		return to, true
	}
	scratchCopy := func(src rt.Addr, size int) (rt.Addr, bool) {
		to, ok := h.AllocScratchBlock(size)
		if ok {
			h.CopyWords(to, src, size)
		}
		return to, ok
	}
	objectSize := func(a rt.Addr) int {
		if h.IsArray(a) {
			return rt.HeaderWords + h.ArrayLen(a)
		}
		return c.Reg.ClassByID(h.ClassID(a)).Size
	}

	useScratch := dsu && h.HasScratch()
	var scratchObjs []rt.Addr
	var gcErr error
	forward := func(v *rt.Value) {
		if gcErr != nil || !v.IsRef || v.Bits == 0 {
			return
		}
		a := v.Ref()
		if h.InCurrentSpace(a) || h.InScratch(a) {
			return
		}
		if to, ok := h.Forwarded(a); ok {
			v.Bits = uint64(to)
			return
		}
		size := objectSize(a)
		if dsu && !h.IsArray(a) {
			cls := c.Reg.ClassByID(h.ClassID(a))
			if cls != nil && cls.UpdatedTo != nil && cls.Moves != nil {
				// A move transformer, the slow way: a zeroed instance of the
				// new class, each carried word through the accessors.
				to, ok := h.AllocObject(cls.UpdatedTo)
				if !ok {
					gcErr = ErrToSpaceExhausted
					return
				}
				for _, m := range cls.Moves {
					for i := rt.Addr(0); i < m.N; i++ {
						h.SetWord(to+m.To+i, h.Word(a+m.From+i))
					}
				}
				h.SetForward(a, to)
				res.CopiedObjects++
				res.CopiedWords += cls.UpdatedTo.Size
				res.Moved++
				v.Bits = uint64(to)
				return
			}
			if cls != nil && cls.UpdatedTo != nil {
				newCls := cls.UpdatedTo
				shell, ok1 := h.AllocObject(newCls)
				var oldCopy rt.Addr
				var ok2 bool
				if useScratch {
					oldCopy, ok2 = scratchCopy(a, size)
					if ok2 {
						scratchObjs = append(scratchObjs, oldCopy)
						res.ScratchWords += size
					}
				} else {
					oldCopy, ok2 = copyTo(a, size)
				}
				if !ok1 || !ok2 {
					gcErr = fmt.Errorf("gc: DSU copy: %w", ErrToSpaceExhausted)
					return
				}
				h.SetForward(a, shell)
				h.SetPairWord(shell, uint64(oldCopy))
				res.Log = append(res.Log, Pair{OldCopy: oldCopy, New: shell})
				res.CopiedObjects += 2
				res.CopiedWords += size + newCls.Size
				res.PairsLogged++
				v.Bits = uint64(shell)
				return
			}
		}
		to, ok := copyTo(a, size)
		if !ok {
			gcErr = ErrToSpaceExhausted
			return
		}
		h.SetForward(a, to)
		res.CopiedObjects++
		res.CopiedWords += size
		v.Bits = uint64(to)
	}
	scanObj := func(a rt.Addr) {
		if h.IsArray(a) {
			if h.ArrayElemIsRef(a) {
				for i := 0; i < h.ArrayLen(a); i++ {
					v := h.Elem(a, i)
					forward(&v)
					h.SetElem(a, i, v)
				}
			}
			return
		}
		for i, isRef := range c.Reg.ClassByID(h.ClassID(a)).RefMap {
			if !isRef {
				continue
			}
			v := h.FieldValue(a, rt.HeaderWords+i, true)
			forward(&v)
			h.SetFieldValue(a, rt.HeaderWords+i, v)
		}
	}

	scan := h.ScanStart()
	scratchCursor := 0
	roots.ForEachRoot(forward)
	for gcErr == nil {
		progressed := false
		for scan < h.AllocPointer() && gcErr == nil {
			size := objectSize(scan)
			scanObj(scan)
			scan += rt.Addr(size)
			progressed = true
		}
		for scratchCursor < len(scratchObjs) && gcErr == nil {
			scanObj(scratchObjs[scratchCursor])
			scratchCursor++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return res, gcErr
}

// sameCollection fails unless the kernel's collection (h, res) and the
// reference's (rh, rres) are indistinguishable: every heap word — to-space,
// scratch, and the forwarding pointers left in from-space — the bump pointers,
// and the Result with its log order.
func sameCollection(t *testing.T, what string, h, rh *heap.Heap, res, rres *Result) {
	t.Helper()
	raw, rraw := h.Raw(), rh.Raw()
	if raw.To != rraw.To || raw.Scratch != rraw.Scratch {
		t.Fatalf("%s: regions differ: kernel to=%+v scratch=%+v, reference to=%+v scratch=%+v",
			what, raw.To, raw.Scratch, rraw.To, rraw.Scratch)
	}
	if !slices.Equal(raw.Words, rraw.Words) {
		for a := range raw.Words {
			if raw.Words[a] != rraw.Words[a] {
				t.Fatalf("%s: heap word @%d: kernel %#x, reference %#x", what, a, raw.Words[a], rraw.Words[a])
			}
		}
	}
	res.Duration, res.PauseCopy = 0, 0
	if len(res.Log) == 0 {
		res.Log = nil // a DSU collection that met no pair logs an empty, non-nil slice
	}
	if !reflect.DeepEqual(res, rres) {
		t.Fatalf("%s: results differ:\nkernel    %+v\nreference %+v", what, res, rres)
	}
}

// TestKernelMatchesReferenceLoop: over the random graphs of the two property
// tests the kernel and the closure loop it replaced leave the same heap.
func TestKernelMatchesReferenceLoop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g, rg := buildRandomGraph(t, seed), buildRandomGraph(t, seed)
		res, err := New(g.w.h, g.w.reg).Collect(g.w, false)
		rres, rerr := refCollectSerial(New(rg.w.h, rg.w.reg), rg.w, false)
		if err != nil || rerr != nil {
			t.Fatalf("seed %d: kernel err %v, reference err %v", seed, err, rerr)
		}
		sameCollection(t, fmt.Sprintf("plain seed %d", seed), g.w.h, rg.w.h, res, rres)
		if !slices.Equal(g.w.roots, rg.w.roots) {
			t.Fatalf("seed %d: roots differ", seed)
		}

		for _, scratch := range []bool{false, true} {
			for _, dsu := range []bool{true, false} { // an update pending but a plain collection: no pairs
				for _, moved := range []bool{false, true} { // Up's transformer runs, or is a move
					d, rd := buildDSUGraph(seed, scratch, moved), buildDSUGraph(seed, scratch, moved)
					res, err := New(d.h, d.reg).Collect(d, dsu)
					rres, rerr := refCollectSerial(New(rd.h, rd.reg), rd, dsu)
					if err != nil || rerr != nil {
						t.Fatalf("seed %d: kernel err %v, reference err %v", seed, err, rerr)
					}
					what := fmt.Sprintf("seed %d dsu=%v scratch=%v moved=%v", seed, dsu, scratch, moved)
					sameCollection(t, what, d.h, rd.h, res, rres)
					if !slices.Equal(d.roots, rd.roots) {
						t.Fatalf("%s: roots differ", what)
					}
					if dsu && moved && (res.PairsLogged != 0 || res.ScratchWords != 0) {
						t.Fatalf("%s: a moved class made %d pairs, %d scratch words", what, res.PairsLogged, res.ScratchWords)
					}
				}
			}
		}
	}
}

// benchWorld is the update-pause shape: n 8-word objects (3 ints, 3 null
// references) pinned by one reference array, every second one of a class that
// an update grows by a word.
type benchWorld struct {
	reg    *rt.Registry
	h      *heap.Heap
	change *rt.Class
	root   rt.Value
}

// update makes every Change instance an instance of an updated class — one
// whose transformer is a move of all six fields, if moved.
func (w *benchWorld) update(tb testing.TB, moved bool) {
	w.change.UpdatedTo = w.load(tb, "ChangeV2", true)
	if moved {
		w.change.Moves = fieldMoves(tb, w.change, w.change.UpdatedTo, "a", "b", "c", "x", "y", "z")
	}
}

func (w *benchWorld) load(tb testing.TB, name string, extra bool) *rt.Class {
	b := classfile.NewClass(name, "").
		Field("a", "I").Field("b", "I").Field("c", "I").
		Field("x", "LObject;").Field("y", "LObject;").Field("z", "LObject;")
	if extra {
		b.Field("d", "I")
	}
	cls, err := w.reg.Load(b.MustBuild())
	if err != nil {
		tb.Fatal(err)
	}
	return cls
}

func (w *benchWorld) ForEachRoot(fn func(*rt.Value)) { fn(&w.root) }

func newBenchWorld(tb testing.TB, n, semi, scratch int, updated, moved bool) *benchWorld {
	tb.Helper()
	w := &benchWorld{reg: rt.NewRegistry(), h: heap.NewWithScratch(semi, scratch)}
	var noChange *rt.Class
	w.change, noChange = w.load(tb, "Change", false), w.load(tb, "NoChange", false)
	if updated {
		w.update(tb, moved)
	}
	arr, ok := w.h.AllocArray(true, n)
	if !ok {
		tb.Fatal("array alloc failed")
	}
	for i := 0; i < n; i++ {
		cls := noChange
		if i%2 == 0 {
			cls = w.change
		}
		a, ok := w.h.AllocObject(cls)
		if !ok {
			tb.Fatal("object alloc failed")
		}
		w.h.SetFieldValue(a, rt.HeaderWords, rt.IntVal(int64(i)))
		w.h.SetElem(arr, i, rt.RefVal(a))
	}
	w.root = rt.RefVal(arr)
	return w
}

// TestCollectExhaustion leaves the copy space one word short at each place a
// serial collection allocates. Each must end in ErrToSpaceExhausted — never a
// panic, never a write past the space — with the bump pointers inside it.
//
// The graph is a 6-word array over Change, NoChange, Change, NoChange (8 words
// each, 38 in from-space); a DSU collection copies it in that order and a
// Change costs a 9-word shell plus its 8-word old copy, so to-space fills
// 6, 15, 23, 31, 40, 48, 56. When Change's transformer is a move it costs its
// 9 new words and nothing else: 6, 15, 23, 32, 40 — and with a fifth object,
// a Change, under a 7-word array: 7, 16, 24, 33, 41, 50.
func TestCollectExhaustion(t *testing.T) {
	cases := []struct {
		name              string
		n                 int
		moved             bool
		semi, scratch     int
		used, scratchUsed int // at the failure: nothing of the failed allocation is kept
	}{
		{"plain copy", 4, false, 55, 0, 48, 0},
		{"shell", 4, false, 39, 0, 31, 0},
		{"old copy in to-space", 4, false, 47, 0, 31, 0},
		{"scratch full", 4, false, 64, 15, 6 + 9 + 8, 8},
		{"moved copy", 5, true, 49, 0, 41, 0},
		{"plain copy after a moved one", 4, true, 39, 0, 32, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newBenchWorld(t, tc.n, tc.semi, tc.scratch, true, tc.moved)
			_, err := New(w.h, w.reg).Collect(w, true)
			if !errors.Is(err, ErrToSpaceExhausted) {
				t.Fatalf("err = %v, want ErrToSpaceExhausted", err)
			}
			raw := w.h.Raw()
			if raw.To.Alloc < raw.To.Lo || raw.To.Alloc > raw.To.Hi ||
				raw.Scratch.Alloc < raw.Scratch.Lo || raw.Scratch.Alloc > raw.Scratch.Hi {
				t.Fatalf("bump pointer left its space: to=%+v scratch=%+v", raw.To, raw.Scratch)
			}
			if w.h.UsedWords() != tc.used || w.h.ScratchUsed() != tc.scratchUsed {
				t.Fatalf("used %d to-space / %d scratch words, want %d / %d",
					w.h.UsedWords(), w.h.ScratchUsed(), tc.used, tc.scratchUsed)
			}
			// Nothing half-written: past the bump pointers both spaces are
			// as the flip left them (never allocated in: zero).
			for _, r := range []heap.Region{raw.To, raw.Scratch} {
				for a := r.Alloc; a < r.Hi; a++ {
					if raw.Words[a] != 0 {
						t.Fatalf("word @%d past the bump pointer %d was written: %#x", a, r.Alloc, raw.Words[a])
					}
				}
			}
		})
	}
}

// TestCollectUnknownClassIsAnError: an object whose class id does not resolve
// is the same structural error whether the collector meets it while forwarding
// (it used to panic there, inside the pause) or while scanning.
func TestCollectUnknownClassIsAnError(t *testing.T) {
	for _, nested := range []bool{false, true} { // met from a root, or from a scanned slot
		w := newWorld(t, 4096)
		bad := w.alloc(t, 1)
		root := bad
		if nested {
			root = w.alloc(t, 2)
			w.h.SetFieldValue(root, offLeft, rt.RefVal(bad))
		}
		w.h.SetWord(bad, 9999)
		w.roots = []rt.Value{rt.RefVal(root)}
		_, err := New(w.h, w.reg).Collect(w, false)
		want := fmt.Sprintf("gc: object @%d with unknown class id 9999", bad)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("nested=%v: err = %v, want %q", nested, err, want)
		}
	}
}

// TestCollectSerialAllocs: a plain collection makes a small constant number
// of Go allocations — the Result, the kernel, its forward as a func value and
// the root closure over it — whatever the heap holds: no slot is boxed and
// nothing is queued.
func TestCollectSerialAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		w := newBenchWorld(t, n, 16*n, 0, false, false)
		c := New(w.h, w.reg)
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Collect(w, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(20000)
	if small != large || small > 4 {
		t.Fatalf("Go allocations per plain collection: %v at 100 objects, %v at 20000; want equal and ≤ 4", small, large)
	}
}

// BenchmarkCollectSerial is the collector's own benchmark of the update-pause
// shape: 100 000 8-word objects under one reference array (900 002 live
// words), collected plain, as a DSU collection with every second object
// updated, and the same with old copies in a scratch region. words/s counts
// copied words (shells and old copies included) and ns/object is per live
// object, both of the fastest iteration: on a shared host the floor is the
// estimate that repeats (ns/op stays the mean).
func BenchmarkCollectSerial(b *testing.B) {
	const n = 100000
	for _, bc := range []struct {
		name       string
		dsu, moved bool
		scratch    int
	}{
		{"plain", false, false, 0},
		{"dsu-f0.5", true, false, 0},
		{"dsu-f0.5-scratch", true, false, n / 2 * 8},
		{"dsu-moved-f0.5", true, true, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var words int
			floor := time.Duration(1<<63 - 1)
			for i := 0; i < b.N; i++ {
				// A DSU collection consumes its input (the survivors are of
				// the new class), so every iteration gets a fresh world; two
				// untimed plain collections fault both semispaces in first.
				b.StopTimer()
				w := newBenchWorld(b, n, 2*n*8, bc.scratch, false, false)
				c := New(w.h, w.reg)
				for range 2 {
					if _, err := c.Collect(w, false); err != nil {
						b.Fatal(err)
					}
				}
				if bc.dsu {
					w.update(b, bc.moved)
				}
				b.StartTimer()
				res, err := c.Collect(w, bc.dsu)
				if err != nil {
					b.Fatal(err)
				}
				words, floor = res.CopiedWords, min(floor, res.Duration)
			}
			b.ReportMetric(float64(words)/floor.Seconds(), "words/s")
			b.ReportMetric(float64(floor.Nanoseconds())/n, "ns/object")
		})
	}
}
