package heap

import "govolve/internal/rt"

// Relocation support (vm.Options.Concurrent): after a DSU flip the world
// resumes with from-space still live, and the remaining live set is evacuated
// incrementally — in bounded quanta of the collector's kernel between
// scheduler slices, and by the mutator through a self-healing load barrier on
// the reference read paths (FieldValue, Elem). Both run on the mutator
// goroutine; the drain itself (its spans, quanta and termination) lives in
// internal/gc. This file is the barrier's armed state and nothing else:
//
//   - Reference LOADS that read a value inside [fromLo, fromHi) call the heal
//     callback, which evacuates-or-adopts the object with the kernel, and
//     store the canonical address back into the slot. A healed slot never
//     re-faults: the canonical address is outside the from-space interval.
//   - Stores and allocation are plain: the mutator only ever stores
//     canonical references (its loads heal, its roots were forwarded in the
//     pause), and nothing else allocates while it runs.
//   - Flip is forbidden (panic): from-space is held until the drain
//     completes; collections force-complete it first.

// relocState is the armed barrier: the from-space interval being drained and
// the gc-layer callback that evacuates-or-adopts one from-space object,
// returning its canonical address (or its argument unchanged if evacuation
// failed — the drain is then failing and the VM will be marked unusable; the
// slot is left stale so nothing is lost).
type relocState struct {
	fromLo, fromHi rt.Addr
	heal           func(rt.Addr) rt.Addr
}

func (r *relocState) inFrom(a rt.Addr) bool { return a >= r.fromLo && a < r.fromHi }

// ArmReloc installs the relocation load barrier over the given from-space
// interval. Called inside the DSU pause, before the world resumes.
func (h *Heap) ArmReloc(fromLo, fromHi rt.Addr, heal func(rt.Addr) rt.Addr) {
	if h.reloc != nil {
		panic("heap: relocation barrier already armed")
	}
	h.reloc = &relocState{fromLo: fromLo, fromHi: fromHi, heal: heal}
}

// DisarmReloc removes the barrier once the drain has evacuated from-space.
func (h *Heap) DisarmReloc() { h.reloc = nil }

// RelocArmed reports whether a relocation drain holds from-space live.
func (h *Heap) RelocArmed() bool { return h.reloc != nil }

// healSlot canonicalizes a from-space reference read from slot idx and
// heals the slot.
func (h *Heap) healSlot(r *relocState, idx rt.Addr, w uint64) uint64 {
	to := uint64(r.heal(rt.Addr(w)))
	h.words[idx] = to // unchanged if the evacuation failed: the slot stays stale
	return to
}
