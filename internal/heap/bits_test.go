package heap

import (
	"testing"

	"govolve/internal/rt"
)

// TestHeaderBitLayout pins the disjointness claims documented in bits.go: no
// two protocols claim overlapping bits on a live header, forwarding's
// repurposing of the low bits is exactly the documented exception, and a
// header is either plain or forwarded.
func TestHeaderBitLayout(t *testing.T) {
	live := []struct {
		name string
		mask uint64
	}{
		{"ClassIDMask", ClassIDMask},
		{"ArrayRefBit", ArrayRefBit},
		{"ArrayBit", ArrayBit},
		{"ForwardBit", ForwardBit},
	}
	var claimed uint64
	for i := 0; i < len(live); i++ {
		claimed |= live[i].mask
		for j := i + 1; j < len(live); j++ {
			if overlap := live[i].mask & live[j].mask; overlap != 0 {
				t.Errorf("%s and %s overlap on bits %#x", live[i].name, live[j].name, overlap)
			}
		}
	}
	// Bits 32..60 are reserved: no protocol claims them.
	if reserved := uint64(1)<<61 - 1<<32; claimed&reserved != 0 {
		t.Errorf("reserved bits %#x are claimed by a protocol — update the bits.go layout doc", claimed&reserved)
	}

	// Forwarding repurposes bits 0..60 as the target address. The class id
	// lies inside that range (the documented temporal exception: forwarding
	// only on from-space originals); the flags that must survive alongside
	// the forward bit do not.
	if ClassIDMask&^ForwardMask != 0 {
		t.Errorf("class id bits %#x escape ForwardMask — forwarding addresses cannot be encoded", ClassIDMask&^ForwardMask)
	}
	if ForwardMask&(ForwardBit|ArrayBit|ArrayRefBit) != 0 {
		t.Errorf("ForwardMask %#x claims flag bits — a forwarding target would corrupt them", ForwardMask)
	}

	// A live header decodes each protocol independently; a forwarded one
	// carries its whole target, the widest address included.
	const classID = 42
	if classID&ForwardBit != 0 || HeaderClassID(classID) != classID {
		t.Errorf("plain live header reads as forwarded")
	}
	if fw := ForwardBit | uint64(^rt.Addr(0)); fw&ForwardMask != uint64(^rt.Addr(0)) {
		t.Errorf("forwarding target %#x does not round-trip", fw&ForwardMask)
	}
	aw := ArrayBit | ArrayRefBit
	if aw&ArrayBit == 0 || HeaderClassID(aw) != 0 {
		t.Errorf("array flags corrupt class id decode")
	}

	// Word 1: the pair word's in-progress sentinel is no address — not even
	// the widest rt.Addr — and not 0 (done); a pending old-copy address
	// round-trips; a fresh object starts at 0; an array keeps its length there.
	if Transforming <= uint64(^rt.Addr(0)) || Transforming == 0 {
		t.Errorf("Transforming = %#x collides with an address or with done", Transforming)
	}
	h := New(64)
	obj, _ := h.AllocObject(&rt.Class{ID: classID, Size: rt.HeaderWords + 1})
	if h.PairWord(obj) != 0 || h.Pending(obj) {
		t.Errorf("fresh object carries pair word %#x", h.PairWord(obj))
	}
	h.SetPairWord(obj, uint64(^rt.Addr(0)))
	if h.PairWord(obj) != uint64(^rt.Addr(0)) || h.ClassID(obj) != classID || h.IsArray(obj) || !h.Pending(obj) {
		t.Errorf("pair word does not round-trip beside word 0")
	}
	if h.SetPairWord(obj, Transforming); h.Pending(obj) {
		t.Errorf("a shell whose transformer is running reads as pending")
	}
	arr, _ := h.AllocArray(false, 3)
	if h.PairWord(arr) != 3 || h.ClassID(arr) != 0 {
		t.Errorf("array word 1 = %d, class id %d, want its length 3 and no class", h.PairWord(arr), h.ClassID(arr))
	}

	// The one array that carries a class id: a String's header holds it beside
	// the array bit, without the reference bit, and its word 1 is its length.
	str, _ := h.AllocChars(&rt.Class{ID: classID}, 4)
	if !h.IsArray(str) || h.ArrayElemIsRef(str) || h.ClassID(str) != classID || h.ArrayLen(str) != 4 {
		t.Errorf("String header %#x, word 1 %d: want array bit and class id %d, length 4", h.Word(str), h.Word(str+1), classID)
	}
}
