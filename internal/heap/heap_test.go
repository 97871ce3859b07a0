package heap

import (
	"testing"

	"govolve/internal/classfile"
	"govolve/internal/rt"
)

func testClass(t *testing.T, reg *rt.Registry, name string, nInt, nRef int) *rt.Class {
	t.Helper()
	b := classfile.NewClass(name, "")
	for i := 0; i < nInt; i++ {
		b.Field(name+"i"+string(rune('a'+i)), "I")
	}
	for i := 0; i < nRef; i++ {
		b.Field(name+"r"+string(rune('a'+i)), classfile.RefOf(name))
	}
	def, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cls, err := reg.Load(def)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func TestAllocObjectLayout(t *testing.T) {
	reg := rt.NewRegistry()
	cls := testClass(t, reg, "A", 2, 1)
	if cls.Size != rt.HeaderWords+3 {
		t.Fatalf("size = %d", cls.Size)
	}
	h := New(1024)
	a, ok := h.AllocObject(cls)
	if !ok {
		t.Fatal("alloc failed")
	}
	if a == 0 {
		t.Fatal("allocated at null address")
	}
	if h.ClassID(a) != cls.ID || h.IsArray(a) {
		t.Fatalf("bad header: classID=%d array=%v", h.ClassID(a), h.IsArray(a))
	}
	// Fields zeroed.
	for i := 0; i < 3; i++ {
		if h.FieldValue(a, rt.HeaderWords+i, false).Bits != 0 {
			t.Fatalf("field %d not zeroed", i)
		}
	}
	// Write/read round trip.
	h.SetFieldValue(a, rt.HeaderWords, rt.IntVal(-7))
	if got := h.FieldValue(a, rt.HeaderWords, false).Int(); got != -7 {
		t.Fatalf("field = %d", got)
	}
}

func TestAllocArray(t *testing.T) {
	h := New(1024)
	a, ok := h.AllocArray(true, 5)
	if !ok {
		t.Fatal("alloc failed")
	}
	if !h.IsArray(a) || !h.ArrayElemIsRef(a) || h.ArrayLen(a) != 5 {
		t.Fatalf("bad array header")
	}
	h.SetElem(a, 4, rt.RefVal(rt.Addr(a)))
	if got := h.Elem(a, 4); got.Ref() != a || !got.IsRef {
		t.Fatalf("elem = %v", got)
	}
	b, ok := h.AllocArray(false, 0)
	if !ok || h.ArrayLen(b) != 0 {
		t.Fatal("empty array")
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := New(64)
	n := 0
	for {
		if _, ok := h.Alloc(8); !ok {
			break
		}
		n++
	}
	if n != 64/8 {
		t.Fatalf("allocated %d objects of 8 words in 64-word space", n)
	}
	if h.FreeWords() != 0 {
		t.Fatalf("free = %d", h.FreeWords())
	}
}

func TestForwarding(t *testing.T) {
	h := New(256)
	a, _ := h.Alloc(4)
	if _, fwd := h.Forwarded(a); fwd {
		t.Fatal("fresh object claims forwarded")
	}
	h.Flip()
	to, ok := h.Alloc(4)
	if !ok {
		t.Fatal("to-space allocation failed")
	}
	h.SetForward(a, to)
	got, fwd := h.Forwarded(a)
	if !fwd || got != to {
		t.Fatalf("forwarded = %v, %v", got, fwd)
	}
	if !h.InCurrentSpace(to) || h.InCurrentSpace(a) {
		t.Fatal("space predicates wrong after flip")
	}
}

func TestFlipAlternates(t *testing.T) {
	h := New(128)
	a, _ := h.Alloc(4)
	h.Flip()
	b, _ := h.Alloc(4)
	if a == b {
		t.Fatal("allocation did not move to other space")
	}
	h.Flip()
	c, _ := h.Alloc(4)
	if c != a {
		t.Fatalf("expected reuse of first space: a=%d c=%d", a, c)
	}
}

func TestSetClassID(t *testing.T) {
	reg := rt.NewRegistry()
	a1 := testClass(t, reg, "A", 1, 0)
	a2 := testClass(t, reg, "B", 2, 0)
	h := New(128)
	a, _ := h.AllocObject(a1)
	h.SetClassID(a, a2.ID)
	if h.ClassID(a) != a2.ID {
		t.Fatal("SetClassID did not stick")
	}
}

// TestCommitRawRefusesAllocation pins Raw's contract: no guest instruction
// runs while a view is open. An allocation inside a view would be lost when
// the view's bump pointers are written back, so CommitRaw panics on it; a
// view the heap did not move under commits.
func TestCommitRawRefusesAllocation(t *testing.T) {
	h := New(64)
	raw := h.Raw()
	raw.To.Alloc += 4
	h.CommitRaw(&raw)
	if h.UsedWords() != 4 {
		t.Fatalf("committed view left %d words used, want 4", h.UsedWords())
	}
	raw = h.Raw()
	if _, ok := h.Alloc(2); !ok {
		t.Fatal("alloc")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CommitRaw accepted a view the heap allocated under")
		}
	}()
	h.CommitRaw(&raw)
}
