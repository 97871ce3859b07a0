package heap

import (
	"sync/atomic"

	"govolve/internal/rt"
)

// Snapshot-at-the-beginning (SATB) write-barrier support for the concurrent
// DSU mark phase (internal/gc's Marker). While a mark is in flight the
// mutator keeps running; the collector must still discover every object that
// was reachable when the snapshot was taken. The classic SATB argument makes
// that cheap:
//
//   - Roots are captured by value when the mark starts (the mutator is
//     parked between scheduling slices at that instant), so root mutations
//     afterwards need no barrier.
//   - Heap reference stores run through a *deletion* barrier: before a ref
//     slot is overwritten, the old value is appended to a buffer the pause
//     drains. An object reachable at the snapshot can only be hidden from
//     the trace by deleting the edge the trace would have used — and every
//     deletion is logged.
//   - Objects allocated after the snapshot are implicitly live
//     (allocate-black). No allocation log is needed: the current space is a
//     bump region, so everything between the snapshot watermark and the
//     allocation pointer is linearly walkable at the pause.
//
// Threading discipline (this is what keeps the race detector quiet):
//
//   - The VM is a green-thread machine: exactly one OS goroutine mutates the
//     heap. Arm/Disarm and every store below run on that goroutine; the SATB
//     buffer is therefore single-writer and needs no lock.
//   - While armed, ref-slot stores go through atomic.StoreUint64 and the
//     tracer reads ref slots through RefSlotLoad (atomic). Headers and array
//     lengths are written before the tracer is spawned (happens-before via
//     goroutine creation), so plain reads of those stay legal.
//   - Disarmed (satb == nil), every store compiles back to the plain word
//     write — the fast path costs one pointer nil-check, the same discipline
//     as the disabled flight recorder.
type satbState struct {
	// lo..watermark bounds the snapshot: current-space base and allocation
	// pointer at arm time. Only overwritten values inside the snapshot
	// region are logged; post-snapshot objects are allocate-black and
	// null/foreign words are never interesting.
	lo        rt.Addr
	watermark rt.Addr
	buf       []rt.Addr
}

// ArmSATB installs the deletion barrier and returns the snapshot watermark
// (the allocation pointer at arm time). The caller supplies the log buffer
// (sliced to zero length here) so repeated updates can pool it. Mutator
// goroutine only.
func (h *Heap) ArmSATB(buf []rt.Addr) rt.Addr {
	h.satb = &satbState{lo: h.base(h.cur), watermark: h.alloc, buf: buf[:0]}
	return h.alloc
}

// DisarmSATB removes the barrier and returns the deletion log (possibly
// nil). Mutator goroutine only — the tracer must have been joined, or must
// not yet be reading the slots the now-plain stores touch.
func (h *Heap) DisarmSATB() []rt.Addr {
	s := h.satb
	if s == nil {
		return nil
	}
	h.satb = nil
	return s.buf
}

// SATBArmed reports whether the deletion barrier is installed.
func (h *Heap) SATBArmed() bool { return h.satb != nil }

// satbStore is the armed ref-slot store: log the overwritten value if it
// lies inside the snapshot region, then store atomically (the tracer reads
// the slot concurrently).
func (h *Heap) satbStore(s *satbState, idx rt.Addr, bits uint64) {
	old := h.words[idx] // single-writer: plain read of our own last store
	if o := rt.Addr(old); o != 0 && o >= s.lo && o < s.watermark {
		s.buf = append(s.buf, o)
	}
	atomic.StoreUint64(&h.words[idx], bits)
}

// RefSlotLoad atomically reads one word. The tracer uses it for every ref
// slot of a snapshot-region object, because the mutator may be storing to
// the same slot concurrently (the armed store above is atomic for exactly
// this pairing).
func (h *Heap) RefSlotLoad(a rt.Addr) uint64 {
	return atomic.LoadUint64(&h.words[a])
}
