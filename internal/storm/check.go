package storm

import (
	"fmt"

	"govolve/internal/gc"
	"govolve/internal/rt"
	"govolve/internal/vm"
)

// maxDeadErrorsGauge mirrors the VM's internal bound on the DeadErrors log
// (vm.maxDeadErrors); the checker treats growth past it as a leak.
const maxDeadErrorsGauge = 128

// CheckVM runs the whole-VM invariant sweep: registry metadata, a full
// reachable-heap walk, a stack walk over every live frame, and bounded
// gauges on the scheduler and NetSim tables. It is read-only — safe to
// call between any two scheduler slices — and is designed to run after
// every update: the storm harness calls it from core.Engine.AfterUpdate,
// and the E5 matrix test calls it after each of the 22 server updates.
//
// Invariants, in order:
//
//   - registry: no registered class is a renamed old version, none has a
//     pending UpdatedTo link outside an update, every class's ref map and
//     field offsets agree, every static slot is inside the JTOC;
//   - heap: every reachable object has a valid class id, no reachable
//     object carries a forwarding pointer or lives outside the current
//     semi-space (enforced by gc.WalkReachable), and no reachable instance
//     belongs to a renamed old version or to stale class metadata shadowed
//     by a newer registration of the same name; the pair word (header word
//     1 of a scalar, heap/bits.go) is 0 on every object when no residue is
//     attached, and with one attached is set only on a shell of the pair
//     log, to that pair's old copy — an instance, in the last flip's tail or
//     the current space, of the shell class's renamed old version;
//   - stacks: no frame executes invalidated compiled code, every pc is in
//     range, no frame's compiled code bakes in offsets of a renamed or
//     unregistered class, and no return barrier survives outside an update;
//   - gauges: the dead-thread error log is bounded, thread states are
//     well-formed, and the NetSim connection/listener tables obey their
//     reaping lifecycle.
func CheckVM(v *vm.VM) error {
	reg, h := v.Reg, v.Heap
	pending := v.UpdatePending()
	// While an update's residue is outstanding — tagged pairs awaiting
	// their transformer, a relocation holding from-space — the renamed old
	// class versions, their UpdatedTo links, the transformer class and the
	// old copies all legitimately outlive the pause: the drain needs
	// them to resolve old-copy class ids and run transformer methods, and
	// its single teardown owns the metadata cleanup. The affected gauges
	// relax until it retires; the heap walk stays strict (no REACHABLE
	// object may ever type as a renamed old version — old copies are
	// reached only through pair words). The walk reads every
	// slot through the heap's accessors, so with the relocation load
	// barrier armed each reference it sees is healed to its canonical
	// to-space address before the InCurrentSpace / forwarding-pointer
	// checks run: it is exactly as strict mid-drain — it just rides the
	// barrier like any other reader (and, as a side effect, evacuates
	// whatever it visits).
	drain := v.DrainActive()

	// --- registry metadata -------------------------------------------------
	for _, cls := range reg.Classes() {
		if cls.Renamed && !drain {
			return fmt.Errorf("registry: renamed old version %s still registered", cls.Name)
		}
		if !pending && !drain && cls.UpdatedTo != nil {
			return fmt.Errorf("registry: %s has UpdatedTo set outside an update", cls.Name)
		}
		if err := checkClassLayout(cls, len(reg.JTOC)); err != nil {
			return err
		}
	}

	// --- heap walk ---------------------------------------------------------
	// The pair log as the residue reports it. Mid-relocation the walk's own
	// healing loads make the drain create pairs, so a miss re-reads the
	// report's tail (it only grows while no transformer runs).
	logged := map[rt.Addr]rt.Addr{}
	seen := 0
	oldCopyOf := func(shell rt.Addr) (rt.Addr, bool) {
		if _, ok := logged[shell]; !ok && drain {
			ps := v.Residue.Pairs()
			for _, p := range ps[seen:] {
				logged[p.New] = p.OldCopy
			}
			seen = len(ps)
		}
		old, ok := logged[shell]
		return old, ok
	}
	err := gc.WalkReachable(h, reg, v, func(a rt.Addr, cls *rt.Class) error {
		if cls == nil {
			return nil // array; structure validated by the walk itself
		}
		if w := h.PairWord(a); w != 0 {
			old, ok := oldCopyOf(a)
			if !ok || w != uint64(old) {
				return fmt.Errorf("heap: @%d of %s carries pair word %#x, but the pair log holds no such pair (drain active: %v)", a, cls.Name, w, drain)
			}
			oc := reg.ClassByID(h.ClassID(old))
			if oc == nil || !oc.Renamed || oc.UpdatedTo != cls || !(h.InTail(old) || h.InCurrentSpace(old)) {
				return fmt.Errorf("heap: shell @%d of %s: pair word @%d is not an old-version instance in the tail or the current space", a, cls.Name, old)
			}
		}
		if cls.Renamed {
			return fmt.Errorf("heap: reachable old-version instance @%d of %s", a, cls.Name)
		}
		if !pending && cls.UpdatedTo != nil {
			return fmt.Errorf("heap: instance @%d of %s with pending UpdatedTo outside an update", a, cls.Name)
		}
		if reged := reg.LookupClass(cls.Name); reged != nil && reged != cls {
			return fmt.Errorf("heap: instance @%d of %s uses stale metadata shadowed by a newer class of the same name", a, cls.Name)
		}
		// Unregistered but non-renamed classes are instances of deleted
		// classes — legal: they live out their lives on the old code.
		return checkClassLayout(cls, len(reg.JTOC))
	})
	if err != nil {
		return err
	}

	// --- stack walk --------------------------------------------------------
	for _, t := range v.Threads {
		switch t.State {
		case vm.Runnable, vm.Blocked, vm.UpdateWait, vm.Dead:
		default:
			return fmt.Errorf("thread %s: invalid state %v", t.Name, t.State)
		}
		if t.State == vm.Dead {
			continue
		}
		if !pending && t.State == vm.UpdateWait {
			return fmt.Errorf("thread %s parked in UpdateWait with no update pending", t.Name)
		}
		for i, f := range t.Frames {
			cm := f.CM
			if cm == nil {
				return fmt.Errorf("thread %s frame %d: nil compiled method", t.Name, i)
			}
			if cm.Invalid {
				return fmt.Errorf("thread %s frame %d: executing invalidated code of %s", t.Name, i, cm.Method.FullName())
			}
			if f.PC < 0 || f.PC >= len(cm.Code) {
				return fmt.Errorf("thread %s frame %d: pc %d out of range [0,%d) in %s", t.Name, i, f.PC, len(cm.Code), cm.Method.FullName())
			}
			// A frame MAY keep executing a method of a renamed old class:
			// that is precisely the frameFree case — the method's bytecode
			// was unchanged by the update and its compiled code bakes in no
			// stale offsets, so JVOLVE lets the activation run to completion
			// on the old code. What it may NOT do is run invalidated code
			// (checked above) or code with renamed/unregistered layout deps
			// (checked below).
			if !pending && f.Barrier {
				return fmt.Errorf("thread %s frame %d: return barrier survives outside an update (%s)", t.Name, i, cm.Method.FullName())
			}
			for dep := range cm.LayoutDeps {
				if dep.Renamed {
					return fmt.Errorf("thread %s frame %d: %s bakes in offsets of renamed class %s", t.Name, i, cm.Method.FullName(), dep.Name)
				}
				if reg.LookupClass(dep.Name) != dep {
					return fmt.Errorf("thread %s frame %d: %s bakes in offsets of unregistered class %s", t.Name, i, cm.Method.FullName(), dep.Name)
				}
			}
		}
	}

	// --- gauges ------------------------------------------------------------
	if n := len(v.DeadErrors); n > maxDeadErrorsGauge {
		return fmt.Errorf("gauge: DeadErrors log grew to %d (> %d)", n, maxDeadErrorsGauge)
	}
	if err := v.Net.CheckIntegrity(); err != nil {
		return err
	}
	return v.CheckScheduler()
}

// checkClassLayout validates one class's internal consistency: ref map
// sized to the instance layout, every field offset in range and agreeing
// with the ref map about reference-ness, no two fields sharing an offset,
// the collectors' scan descriptor agreeing with the ref map, and every
// static slot inside the JTOC.
func checkClassLayout(cls *rt.Class, jtocLen int) error {
	if cls.Size < rt.HeaderWords {
		return fmt.Errorf("class %s: size %d smaller than header", cls.Name, cls.Size)
	}
	if len(cls.RefMap) != cls.Size-rt.HeaderWords {
		return fmt.Errorf("class %s: ref map has %d entries for %d field words", cls.Name, len(cls.RefMap), cls.Size-rt.HeaderWords)
	}
	seen := make(map[int]string, len(cls.Fields))
	for _, f := range cls.Fields {
		if f.Offset < rt.HeaderWords || f.Offset >= cls.Size {
			return fmt.Errorf("class %s: field %s offset %d outside instance [%d,%d)", cls.Name, f.Name, f.Offset, rt.HeaderWords, cls.Size)
		}
		if prev, dup := seen[f.Offset]; dup {
			return fmt.Errorf("class %s: fields %s and %s share offset %d", cls.Name, prev, f.Name, f.Offset)
		}
		seen[f.Offset] = f.Name
		if cls.RefMap[f.Offset-rt.HeaderWords] != f.Desc.IsRef() {
			return fmt.Errorf("class %s: field %s (%s) disagrees with ref map at offset %d", cls.Name, f.Name, f.Desc, f.Offset)
		}
	}
	// The scan descriptor every tracer iterates is exactly the ref map's true
	// entries, ascending.
	next := 0
	for i, isRef := range cls.RefMap {
		if !isRef {
			continue
		}
		if next >= len(cls.RefOffsets) || cls.RefOffsets[next] != rt.Addr(rt.HeaderWords+i) {
			return fmt.Errorf("class %s: scan descriptor %v misses the reference at offset %d", cls.Name, cls.RefOffsets, rt.HeaderWords+i)
		}
		next++
	}
	if next != len(cls.RefOffsets) {
		return fmt.Errorf("class %s: scan descriptor %v lists %d offsets for %d references", cls.Name, cls.RefOffsets, len(cls.RefOffsets), next)
	}
	for _, s := range cls.Statics {
		if s.Slot < 0 || s.Slot >= jtocLen {
			return fmt.Errorf("class %s: static %s slot %d outside JTOC (len %d)", cls.Name, s.Name, s.Slot, jtocLen)
		}
	}
	return nil
}
