package gc

import (
	"fmt"

	"govolve/internal/heap"
	"govolve/internal/rt"
)

// WalkReachable traverses the reachable object graph read-only, calling
// visit exactly once per reachable object (cls is nil for arrays). It is
// the foundation of whole-VM invariant checking (internal/storm): unlike
// Collect it moves nothing, so it can run between any two scheduler slices
// to audit the heap the mutator actually sees.
//
// The walk itself validates structural soundness and stops with an error
// on the first violation:
//
//   - every reachable reference lands inside the current semi-space and
//     below the allocation pointer (no stale from-space or old-copy refs),
//   - no reachable object carries a forwarding pointer (forwarding state
//     must not outlive a collection),
//   - every non-array object's class id resolves via reg.ClassByID,
//   - array lengths are non-negative and the recorded object size stays
//     inside the allocated region.
//
// visit may return an error to abort the walk; it is propagated verbatim.
func WalkReachable(h *heap.Heap, reg *rt.Registry, roots Roots, visit func(a rt.Addr, cls *rt.Class) error) error {
	seen := make(map[rt.Addr]bool)
	var stack []rt.Addr
	var walkErr error

	push := func(v rt.Value, where string) {
		if walkErr != nil || !v.IsRef || v.Bits == 0 {
			return
		}
		a := v.Ref()
		if seen[a] {
			return
		}
		if !h.InCurrentSpace(a) {
			walkErr = fmt.Errorf("heap walk: %s holds from-space/out-of-heap ref @%d", where, a)
			return
		}
		if a >= h.AllocPointer() {
			walkErr = fmt.Errorf("heap walk: %s holds ref @%d beyond allocation pointer %d", where, a, h.AllocPointer())
			return
		}
		if _, fwd := h.Forwarded(a); fwd {
			walkErr = fmt.Errorf("heap walk: %s holds ref @%d with live forwarding pointer", where, a)
			return
		}
		seen[a] = true
		stack = append(stack, a)
	}

	roots.ForEachRoot(func(v *rt.Value) { push(*v, "root set") })

	for walkErr == nil && len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if h.IsArray(a) {
			n := h.ArrayLen(a)
			if n < 0 {
				return fmt.Errorf("heap walk: array @%d has negative length %d", a, n)
			}
			if end := a + rt.HeaderWords + rt.Addr(n); end > h.AllocPointer() {
				return fmt.Errorf("heap walk: array @%d (len %d) extends past allocation pointer", a, n)
			}
			if err := visit(a, nil); err != nil {
				return err
			}
			if h.ArrayElemIsRef(a) {
				for i := 0; i < n; i++ {
					push(h.Elem(a, i), fmt.Sprintf("array @%d[%d]", a, i))
				}
			}
			continue
		}

		cls := reg.ClassByID(h.ClassID(a))
		if cls == nil {
			return fmt.Errorf("heap walk: object @%d has unknown class id %d", a, h.ClassID(a))
		}
		if end := a + rt.Addr(cls.Size); end > h.AllocPointer() {
			return fmt.Errorf("heap walk: object @%d (%s, %d words) extends past allocation pointer", a, cls.Name, cls.Size)
		}
		if err := visit(a, cls); err != nil {
			return err
		}
		for _, off := range cls.RefOffsets {
			push(h.FieldValue(a, int(off), true),
				fmt.Sprintf("object @%d (%s) slot %d", a, cls.Name, off-rt.HeaderWords))
		}
	}
	return walkErr
}
