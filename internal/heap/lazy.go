package heap

import (
	"sync/atomic"

	"govolve/internal/rt"
)

// Lazy per-object transformation support (the on-first-use hybrid the paper
// contrasts with eager pause-time transformation in §5). When the DSU engine
// runs in LazyTransform mode, the pause still copies every updated-class
// instance into its new-layout shell, but instead of walking the pair log
// through transformers it tags each shell "untransformed" with a header bit.
// The interpreter's receiver/field/array fast paths test the bit behind the
// engine-installed touch hook and transform an object the first time it is
// actually dereferenced.
//
// Bit choice: untransformedBit is bit 60 (see bits.go for the full header
// map). The bit lies inside ForwardMask, but a tagged object is never
// simultaneously forwarded: the tag only ever lands on to-space shells, and
// the engine force-completes the drain before any collection runs
// (vm.CollectGarbage consults the drain hook), so no tagged header survives
// into a flip. ClassID, IsArray and dispatch are unaffected by the bit,
// which is exactly what makes the scheme sound: a tagged shell already
// carries the NEW class id — method dispatch, instanceof and checkcast are
// correct before transformation; only field contents are stale until first
// touch.
//
// Arm/disarm discipline mirrors satb.go: the barrier's armed state is the
// VM-level residue hook (vm.VM.Residue), a single pointer nil-check on the
// disabled path. The heap only owns the per-object tag bit. All three
// accessors run on the mutator goroutine only, like every other header
// access — except while a concurrent relocation drain is armed, when the
// relocator reads to-space headers for sizing: the mutator's tag
// read-modify-writes then go through atomic load+store (sound because the
// mutator is the only header WRITER in to-space; the relocator only reads).

// MarkUntransformed tags an object as copied-but-not-yet-transformed.
func (h *Heap) MarkUntransformed(a rt.Addr) {
	if h.reloc != nil {
		w := atomic.LoadUint64(&h.words[a])
		atomic.StoreUint64(&h.words[a], w|untransformedBit)
		return
	}
	h.words[a] |= untransformedBit
}

// ClearUntransformed removes the tag (transform started or force-completed).
func (h *Heap) ClearUntransformed(a rt.Addr) {
	if h.reloc != nil {
		w := atomic.LoadUint64(&h.words[a])
		atomic.StoreUint64(&h.words[a], w&^untransformedBit)
		return
	}
	h.words[a] &^= untransformedBit
}

// Untransformed reports whether the object still awaits its transformer.
func (h *Heap) Untransformed(a rt.Addr) bool {
	if h.reloc != nil {
		return atomic.LoadUint64(&h.words[a])&untransformedBit != 0
	}
	return h.words[a]&untransformedBit != 0
}

// PairWord reads a scalar object's pair word (bits.go); mid-relocation too, only the mutator touches it.
func (h *Heap) PairWord(a rt.Addr) uint64 { return h.words[a+1] }

// SetPairWord writes a scalar object's pair word.
func (h *Heap) SetPairWord(a rt.Addr, w uint64) { h.words[a+1] = w }
