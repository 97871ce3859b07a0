package heap

import (
	"testing"

	"govolve/internal/rt"
)

// The heap's contract with its backing (DESIGN.md §8): it never reads a word
// it has not written, so New leaves every word but null as Go's allocator
// did. These tests run on a heap whose unwritten words all hold staleWord and
// pin what each allocation path writes over them.

// TestNullWordIsZero: address 0 is null and reads 0 on every fresh heap, the
// one word New writes (under -tags heappoison no other word is 0).
func TestNullWordIsZero(t *testing.T) {
	for _, semi := range []int{0, 16, 1 << 10, 1 << 18} {
		if w := New(semi).words[0]; w != 0 {
			t.Fatalf("New(%d): word 0 = %#x", semi, w)
		}
	}
}

// TestAllocClearsStaleWords: Alloc, AllocObject and AllocArray hand out
// all-zero bodies over stale words, and write nothing past what they hand out.
func TestAllocClearsStaleWords(t *testing.T) {
	reg := rt.NewRegistry()
	cls := testClass(t, reg, "A", 2, 1)
	h := Poisoned(256)
	check := func(what string, a rt.Addr, size int, header ...uint64) {
		t.Helper()
		for i := 0; i < size; i++ {
			want := uint64(0)
			if i < len(header) {
				want = header[i]
			}
			if got := h.words[a+rt.Addr(i)]; got != want {
				t.Fatalf("%s: word %d = %#x, want %#x", what, i, got, want)
			}
		}
		if next := a + rt.Addr(size); h.words[next] != staleWord(next) {
			t.Fatalf("%s: wrote the word past it: %#x", what, h.words[next])
		}
	}
	a, _ := h.Alloc(5)
	check("Alloc(5)", a, 5)
	a, _ = h.AllocObject(cls)
	check("AllocObject", a, cls.Size, uint64(cls.ID))
	a, _ = h.AllocArray(true, 4)
	check("AllocArray(ref, 4)", a, rt.HeaderWords+4, ArrayBit|ArrayRefBit, 4)
	a, _ = h.AllocArray(false, 3)
	check("AllocArray(int, 3)", a, rt.HeaderWords+3, ArrayBit, 3)
}

// TestAllocCharsWritesOnlyItsHeader: AllocChars writes its two header words
// — the array bit beside the String class id, and the length — and leaves
// every element as it found it: its callers write them (DESIGN.md §7.1).
func TestAllocCharsWritesOnlyItsHeader(t *testing.T) {
	h := Poisoned(256)
	a, _ := h.AllocChars(&rt.Class{ID: 7}, 6)
	if h.words[a] != ArrayBit|7 || h.words[a+1] != 6 {
		t.Fatalf("header %#x %#x, want %#x 6", h.words[a], h.words[a+1], ArrayBit|7)
	}
	for e := a + rt.HeaderWords; e <= a+rt.HeaderWords+6; e++ {
		if h.words[e] != staleWord(e) {
			t.Fatalf("word @%d = %#x: AllocChars wrote past its header", e, h.words[e])
		}
	}
}

// BenchmarkHeapNew is a launch's heap at the size release-replay launches its
// servers with: 1<<18 words per semispace.
func BenchmarkHeapNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSink = New(1 << 18)
	}
}

var newSink *Heap
