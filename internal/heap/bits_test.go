package heap

import (
	"testing"

	"govolve/internal/rt"
)

// TestHeaderBitLayout pins the disjointness claims documented in bits.go: no
// two protocols claim overlapping bits on a live header, forwarding's
// repurposing of the low bits is exactly the documented exception, and the
// claim sentinel is distinguishable from every publishable forwarding
// pointer.
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

	// The CAS claim sentinel: carries the forward bit (so HeaderForwarded
	// sees a forwarded-family word) with an all-ones target no real
	// forwarding pointer can equal (the heap is word-indexed far below 2^61).
	if claimedWord != ForwardBit|ForwardMask {
		t.Errorf("claimedWord = %#x, want ForwardBit|ForwardMask = %#x", claimedWord, ForwardBit|ForwardMask)
	}
	if to, forwarded, claimed := HeaderForwarded(claimedWord); forwarded || !claimed || to != 0 {
		t.Errorf("HeaderForwarded(claimedWord) = (%d, %v, %v), want (0, false, true)", to, forwarded, claimed)
	}

	// A live header decodes each protocol independently.
	const classID = 42
	if _, forwarded, claimed := HeaderForwarded(classID); forwarded || claimed {
		t.Errorf("plain live header reads as forwarded/claimed")
	}
	aw := ArrayBit | ArrayRefBit
	if !HeaderIsArray(aw) || HeaderClassID(aw) != 0 {
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
	if h.PairWord(arr) != 3 {
		t.Errorf("array word 1 = %d, want its length 3", h.PairWord(arr))
	}
}
