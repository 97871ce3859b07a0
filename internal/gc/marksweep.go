package gc

import (
	"fmt"
	"sort"
	"time"

	"govolve/internal/obs"
	"govolve/internal/rt"
)

// CollectWithMark is the pause half of a concurrent-mark DSU collection: it
// consumes the sealed Marker and runs only the work that cannot overlap the
// mutator. Where the STW collector traces the whole heap inside the pause,
// this path:
//
//  1. rescan  — drains the SATB deletion log and re-scans the root set,
//     transitively marking any snapshot-region object the concurrent trace
//     has not seen (typically a handful: values the mutator moved around
//     while the trace ran). This is the only in-pause tracing.
//  2. sweep   — walks from-space linearly (a bump region is self-parsing),
//     collecting every marked object plus everything in [watermark, alloc)
//     (allocate-black), in address order. Then flips and copies exactly
//     that list: updated-class instances get the usual pair treatment
//     (shell + old copy, forwarding pointer to the shell), everything else
//     a plain evacuation.
//  3. fixup   — rewrites every ref slot of the copies (and the scratch old
//     copies) and every root through the forwarding pointers. A live ref
//     to an unforwarded object means the SATB invariant was violated; the
//     collection fails loudly rather than corrupting the heap.
//
// The result is bit-compatible with the STW collector's (same Pair and
// pair-word contract, update log sorted by new-shell address) plus the
// pause decomposition: PauseRescan + PauseCopy ≈ Duration, PauseMark = 0,
// with the concurrent trace's wall time reported outside the pause in
// MarkOutside.
//
// If the marker is missing, unsealed, or aborted, it falls back to the
// ordinary Collect — the engine relies on that for the bounded-restart
// fallback path.
func (c *Collector) CollectWithMark(roots Roots, dsu bool) (*Result, error) {
	m := c.mark
	if m == nil || !m.sealed || m.aborted {
		return c.Collect(roots, dsu)
	}
	c.mark = nil
	defer c.recycleMark(m)

	start := time.Now()
	h := c.Heap
	// The barrier stayed armed through the blocked safe-point wait (see
	// SealMark); the mutator is stopped now, so disarm and take the full
	// deletion log — every snapshot-region edge severed since the snapshot
	// is in it, which is exactly what makes the rescan below sound.
	m.satb = h.DisarmSATB()
	res := &Result{
		MarkConcurrent:       true,
		MarkOutside:          m.trace,
		MarkSetup:            m.setup,
		MarkedObjects:        m.markedObjects,
		SATBDrained:          len(m.satb),
		MarkUpdatedInstances: m.updatedInstances,
	}

	// --- 1. rescan ---------------------------------------------------------
	tRescan := time.Now()
	var stack []rt.Addr
	pushIf := func(w rt.Addr) {
		if w == 0 || w < m.lo || w >= m.watermark {
			return
		}
		if m.setMarkSerial(w) {
			stack = append(stack, w)
			res.RescanMarked++
		}
	}
	for _, w := range m.satb {
		pushIf(w)
	}
	roots.ForEachRoot(func(v *rt.Value) {
		if v.IsRef {
			pushIf(v.Ref())
		}
	})
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if h.IsArray(a) {
			if h.ArrayElemIsRef(a) {
				for i := 0; i < h.ArrayLen(a); i++ {
					pushIf(h.Elem(a, i).Ref())
				}
			}
			continue
		}
		cls := c.Reg.ClassByID(h.ClassID(a))
		if cls == nil {
			return nil, preFlipErr(fmt.Errorf("gc: rescan: object @%d with unknown class id %d", a, h.ClassID(a)))
		}
		for _, off := range cls.RefOffsets {
			pushIf(h.FieldValue(a, int(off), true).Ref())
		}
	}
	res.PauseRescan = time.Since(tRescan)

	// --- 2. sweep: build the live list, then flip and copy -----------------
	tCopy := time.Now()
	entries, err := c.sweepList(m)
	if err != nil {
		// Nothing has been flipped or forwarded yet: the heap is intact, so
		// surface the structural error without poisoning it.
		return nil, preFlipErr(err)
	}
	h.Flip()
	if err := c.sweepSerial(entries, dsu, res); err != nil {
		return nil, err // flip happened: heap unusable, caller marks it fatal
	}

	// --- 3. fixup: rewrite refs through the forwarding pointers ------------
	if err := c.fixupSerial(entries, roots); err != nil {
		return nil, err
	}
	res.PauseCopy = time.Since(tCopy)
	c.pool.entries = entries[:0] // recycle the live list for the next cycle

	sort.Slice(res.Log, func(i, j int) bool { return res.Log[i].New < res.Log[j].New })
	res.PairsLogged = len(res.Log)

	c.Collections++
	c.CopiedObjects += res.CopiedObjects
	res.Duration = time.Since(start)
	return res, nil
}

// sweepEntry is one object scheduled for evacuation, with its copy
// destinations filled in during the copy phase.
type sweepEntry struct {
	addr rt.Addr
	size int32
	// newCls is non-nil for a DSU pair (old class's UpdatedTo); new is then
	// the shell and oldCopy the preserved old version. For plain objects —
	// and for instances a move transformer rewrote into their new layout —
	// new is the evacuated copy and oldCopy is 0.
	newCls  *rt.Class
	new     rt.Addr
	oldCopy rt.Addr
}

// sweepList walks from-space linearly and returns, in address order, every
// marked object plus the whole allocate-black region [watermark, alloc).
// A bump region is self-parsing except for the dead gaps an earlier relocation
// drain left behind (the relocator's abandoned TLAB tails) — the walk consults
// the heap's hole list to step over those. It runs before the flip and mutates
// nothing, so any error here leaves the heap fully usable (the caller falls
// back or fails the update cleanly).
func (c *Collector) sweepList(m *Marker) ([]sweepEntry, error) {
	h := c.Heap
	entries := c.pool.entries[:0]
	holes := h.Holes()
	objSize := func(a rt.Addr) (int, error) {
		if h.IsArray(a) {
			return rt.HeaderWords + h.ArrayLen(a), nil
		}
		cls := c.Reg.ClassByID(h.ClassID(a))
		if cls == nil {
			return 0, fmt.Errorf("gc: sweep: object @%d with unknown class id %d", a, h.ClassID(a))
		}
		return cls.Size, nil
	}
	skipHole := func(a rt.Addr) (rt.Addr, bool) {
		for len(holes) > 0 && holes[0].Addr < a {
			holes = holes[1:] // stale entry below the walk — cannot happen, but stay safe
		}
		if len(holes) > 0 && holes[0].Addr == a {
			a += rt.Addr(holes[0].Size)
			holes = holes[1:]
			return a, true
		}
		return a, false
	}
	for a := m.lo; a < m.watermark; {
		if na, skipped := skipHole(a); skipped {
			a = na
			continue
		}
		size, err := objSize(a)
		if err != nil {
			return nil, err
		}
		if m.isMarked(a) {
			entries = append(entries, sweepEntry{addr: a, size: int32(size)})
		}
		a += rt.Addr(size)
	}
	for a := m.watermark; a < h.AllocPointer(); {
		if na, skipped := skipHole(a); skipped {
			a = na
			continue
		}
		size, err := objSize(a)
		if err != nil {
			return nil, err
		}
		entries = append(entries, sweepEntry{addr: a, size: int32(size)})
		a += rt.Addr(size)
	}
	return entries, nil
}

// updatedClass returns the entry's class when a DSU collection has to
// transform the entry — it is an instance of a class with UpdatedTo set (by
// the install phase, which precedes the collection inside the same pause) —
// and nil for everything else. With Moves the entry is copied like a plain
// one, in the new layout and size; without, it becomes a pair (e.newCls).
func (c *Collector) updatedClass(e *sweepEntry, dsu bool) *rt.Class {
	if !dsu || c.Heap.IsArray(e.addr) {
		return nil
	}
	if cls := c.Reg.ClassByID(c.Heap.ClassID(e.addr)); cls != nil && cls.UpdatedTo != nil {
		return cls
	}
	return nil
}

// sweepSerial copies the entry list with the kernel's bump pointer — address
// order in, address order out, so the to-space layout is as compact and
// deterministic as the Cheney path's.
func (c *Collector) sweepSerial(entries []sweepEntry, dsu bool, res *Result) error {
	c.Rec.Emit(obs.KPhaseBegin, obs.LaneGC, 0, "gc sweep/fixup")
	k := c.newKernel(dsu)
	for i := range entries {
		e := &entries[i]
		switch old := c.updatedClass(e, dsu); {
		case old == nil:
			e.new = k.copy(e.addr, rt.Addr(e.size))
		case old.Moves != nil:
			e.new = k.move(e.addr, old)
		default:
			e.newCls = old.UpdatedTo
			p := k.pair(e.addr, k.Words[e.addr], rt.Addr(e.size), e.newCls)
			e.new, e.oldCopy = p.New, p.OldCopy
		}
		if k.err != nil {
			break
		}
	}
	k.commit(c.Heap, res)
	c.Rec.Emit(obs.KGCWorkerCopy, obs.LaneGC, int64(res.CopiedWords), "")
	c.Rec.Emit(obs.KPhaseEnd, obs.LaneGC, int64(res.CopiedWords), "gc sweep/fixup")
	return k.err
}

// fixTarget decides which copy of an entry needs its ref slots rewritten:
// the evacuated object for plain and moved entries (a moved one under its new
// class's descriptor), the old copy for DSU pairs (the shell is all zeros —
// its transformer fills it in).
func (e *sweepEntry) fixTarget() rt.Addr {
	if e.newCls != nil {
		return e.oldCopy
	}
	return e.new
}

// fixupObj rewrites every ref slot of one copied object through the
// from-space forwarding pointers. An unforwarded target means a live object
// escaped the mark — the SATB invariant was violated — and the collection
// fails rather than leaving a dangling from-space reference.
func (c *Collector) fixupObj(a rt.Addr) error {
	h := c.Heap
	fix := func(w rt.Addr) (rt.Addr, error) {
		if w == 0 {
			return 0, nil
		}
		if to, ok := h.Forwarded(w); ok {
			return to, nil
		}
		return 0, fmt.Errorf("gc: fixup: copy @%d references unmarked object @%d (SATB invariant violated)", a, w)
	}
	if h.IsArray(a) {
		if h.ArrayElemIsRef(a) {
			for i := 0; i < h.ArrayLen(a); i++ {
				to, err := fix(h.Elem(a, i).Ref())
				if err != nil {
					return err
				}
				h.SetElem(a, i, rt.RefVal(to))
			}
		}
		return nil
	}
	cls := c.Reg.ClassByID(h.ClassID(a))
	if cls == nil {
		return fmt.Errorf("gc: fixup: object @%d with unknown class id %d", a, h.ClassID(a))
	}
	for _, off := range cls.RefOffsets {
		to, err := fix(h.FieldValue(a, int(off), true).Ref())
		if err != nil {
			return err
		}
		h.SetFieldValue(a, int(off), rt.RefVal(to))
	}
	return nil
}

// fixupRoots rewrites one root enumerator through the forwarding pointers.
func (c *Collector) fixupRoots(roots Roots) error {
	h := c.Heap
	var firstErr error
	roots.ForEachRoot(func(v *rt.Value) {
		if firstErr != nil || !v.IsRef || v.Bits == 0 {
			return
		}
		if to, ok := h.Forwarded(v.Ref()); ok {
			v.Bits = uint64(to)
			return
		}
		firstErr = fmt.Errorf("gc: fixup: root references unmarked object @%d (SATB invariant violated)", v.Ref())
	})
	return firstErr
}

func (c *Collector) fixupSerial(entries []sweepEntry, roots Roots) error {
	for i := range entries {
		if err := c.fixupObj(entries[i].fixTarget()); err != nil {
			return err
		}
	}
	return c.fixupRoots(roots)
}
