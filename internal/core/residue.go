package core

import (
	"fmt"
	"strings"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/gc"
	"govolve/internal/heap"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// plan is how the pairs of one updated class transform, resolved once per
// update: the per-object path builds no string and looks nothing up by name.
// A class whose transformer is a move (rt.Class.Moves) has no plan — the
// collector transformed its instances as it copied them and made no pair.
type plan struct {
	newCls, oldCls *rt.Class
	tm             *rt.Method // jvolveObject; nil is an error at the first instance
	label          string     // recorder label and synchronous thread name
}

// residue is everything one update leaves behind that must outlive its DSU
// collection: the pair log (a pair's transformation status is its shell's pair
// word, heap/bits.go), the in-flight relocation (vm.Options.Concurrent),
// and what both still need from the install phase — the renamed old class
// versions (old copies are sized and typed through their class ids) and the
// transformer class. The old copies themselves sit in the tail of the space
// the collection left (heap/heap.go), which no one reclaims before the next
// flip, and every flip forces the residue first. The paper has
// one transformer phase and one teardown (§3.4–3.5); where the transformers
// run is a placement, data on this object, not a separate code path:
//
//   - eager (serial mode): runPause walks the whole log inside the pause and
//     the first transformer error fails the update;
//   - adopted (vm.Options.Concurrent, with the §5 on-first-use hybrid's
//     on-touch transformation): the pause paired only what the roots point
//     at, and the relocation creates pending pairs as it evacuates. runPause
//     arms the read barrier (vm.DSUResidue.OnTouch) after the class
//     transformers, the barrier transforms each pending pair on first touch,
//     and the log adopts the relocation's pairs on first touch or when the
//     relocation finishes. An error after the pause is the object's data
//     loss, since the program already resumed on the new version.
//
// Only transformers that have to run make pairs. One that is a pure field copy
// (every generated default: upt.Spec.ObjectMoves) is resolved here, before the
// collection, to word runs on the old class (rt.Class.Moves), and the
// collector — or, in the adopted placement, the relocation — performs it while
// it copies the object; the residue only books the count (moved).
//
// Lifecycle: apply builds it once the install phase has loaded the new code
// and attaches it to the VM when the collection succeeds. It retires — one
// teardown for both placements and every failure path — as soon as nothing
// is outstanding: at the end of the pause (eager), once the relocation's
// drain has run from-space dry (tick) and the last pending pair transformed,
// or when a collection, a follow-up update, a gate policy or the harness
// forces it (force).
//
// Everything here runs on the mutator goroutine — barrier hits, drain quanta,
// forced drains and collections all happen inside VM.Step — so no locking.
type residue struct {
	e            *Engine
	spec         *upt.Spec
	transformers *rt.Class
	renamed      []*rt.Class // old versions, unregistered at retire
	plans        []plan      // indexed by new class id - planBase
	planBase     int
	stats        *Stats

	log     []gc.Pair
	pending int // pairs whose pair word is still set: transformer not finished
	adopted int // how many of rl.Deferred() the log has taken over

	rl        *gc.Relocation // nil unless the collection left a relocation draining
	relocDone bool           // rl finished: from-space released, pair log final

	sealed   time.Time // transformer phase end; drain latency is measured from here
	forcing  bool      // inside force: classify completions as LazyForced
	retired  bool
	firstErr error // first transformer error outside the pause (data loss)
	fatal    error // the relocation drain failed: the heap is unusable
}

// attach hands the residue what the DSU collection produced and installs it
// as the VM's residue hook, unarmed — before the transformer phase, because a
// transformer (Jvolve.forceTransform) or a clinit-triggered collection must
// be able to reach it while the pause is still open. runPause arms it.
func (r *residue) attach(gcRes *gc.Result, rl *gc.Relocation) {
	r.log, r.pending, r.rl = gcRes.Log, len(gcRes.Log), rl
	r.moved(gcRes.Moved)
	r.e.residue = r
	r.e.VM.Residue = &vm.DSUResidue{Transform: r.transform, Tick: r.tick, Force: r.force, Pairs: r.pairs}
}

// adopts reports the adopted placement: pairs come from the relocation.
func (r *residue) adopts() bool { return r.rl != nil }

// adopt takes over the pairs the relocation created since the last call
// (adopted placement only), already in shell-address order (gc.Relocation.
// Deferred). PairsLogged counts pairs where they join the log — here, not in
// the pause — so the chain-wide law (TransformedObjects == PairsLogged +
// MovedObjects after the terminal drain) stays mode-blind.
func (r *residue) adopt() {
	if !r.adopts() {
		return
	}
	fresh := r.rl.Deferred()[r.adopted:]
	if len(fresh) == 0 {
		return
	}
	r.log = append(r.log, fresh...)
	r.adopted += len(fresh)
	r.pending += len(fresh)
	r.stats.PairsLogged += len(fresh)
	r.stats.LazyPending = r.stats.LazyDrained + r.stats.LazyForced + r.pending
}

// pairs is the log plus what the relocation created and the log has not adopted yet.
func (r *residue) pairs() []gc.Pair {
	if !r.adopts() {
		return r.log
	}
	return append(r.log[:len(r.log):len(r.log)], r.rl.Deferred()[r.adopted:]...)
}

// moved books n instances the collector (or the relocation drain) wrote in
// their new layout: transformed, by a transformer that was a copy.
func (r *residue) moved(n int) {
	if n == 0 {
		return
	}
	r.stats.MovedObjects += n
	r.stats.TransformedObjects += n
	v := r.e.VM
	v.Metrics.Counter(obs.MMovedObjects).Add(int64(n))
	if v.Rec.Enabled() {
		var names []string
		for _, old := range r.renamed {
			if old.Moves != nil {
				names = append(names, old.UpdatedTo.Name)
			}
		}
		v.Rec.Emit(obs.KTransformerApplied, obs.LaneEngine, int64(n), "moved:"+strings.Join(names, ","))
	}
}

// resolveMoves compiles a move transformer — the field pairs upt proved the
// body of jvolveObject to be (Spec.ObjectMoves) — into word runs, adjacent
// fields coalesced, in body order. nil when the body is not one, or names a
// field the linker does not know: the bytecode path then runs, and reports it.
func resolveMoves(spec *upt.Spec, newCls, old *rt.Class) []rt.Move {
	fields, ok := spec.ObjectMoves(newCls.Name)
	if !ok {
		return nil
	}
	moves := make([]rt.Move, 0, len(fields))
	for _, f := range fields {
		of, nf := old.Field(f.From), newCls.Field(f.To)
		if of == nil || nf == nil || of.Desc.IsRef() != nf.Desc.IsRef() {
			return nil
		}
		from, to := rt.Addr(of.Offset), rt.Addr(nf.Offset)
		if k := len(moves) - 1; k >= 0 && moves[k].From+moves[k].N == from && moves[k].To+moves[k].N == to {
			moves[k].N++
			continue
		}
		moves = append(moves, rt.Move{From: from, To: to, N: 1})
	}
	return moves
}

// buildPlans resolves every renamed old version's transformer: to word runs
// the collector performs itself when it is a move, to the jvolveObject method
// the pair walk interprets otherwise. The new versions' class ids are
// consecutive in load order, so the table is short.
func (r *residue) buildPlans() error {
	lo, hi := 0, 0
	for i, old := range r.renamed {
		if id := old.UpdatedTo.ID; i == 0 || id < lo {
			lo = id
		}
		hi = max(hi, old.UpdatedTo.ID+1)
	}
	r.planBase, r.plans = lo, make([]plan, hi-lo)
	for _, old := range r.renamed {
		newCls := old.UpdatedTo
		if old.Moves = resolveMoves(r.spec, newCls, old); old.Moves != nil {
			continue
		}
		transformers, err := r.transformerClass()
		if err != nil {
			return err
		}
		sig := classfile.Sig("(L" + newCls.Name + ";L" + old.Name + ";)V")
		r.plans[newCls.ID-lo] = plan{
			newCls: newCls, oldCls: old,
			tm: transformers.Method("jvolveObject", sig), label: "jvolveObject:" + newCls.Name,
		}
	}
	return nil
}

// transformerClass loads the update's transformer class the first time a
// transformer has to run as bytecode, in place of any an earlier update
// left. An update whose object and class transformers are all moves (every
// generated default is one) never loads it.
func (r *residue) transformerClass() (*rt.Class, error) {
	if r.transformers == nil {
		reg := r.e.VM.Reg
		if old := reg.LookupClass(upt.TransformersClassName); old != nil {
			reg.Unregister(old)
		}
		cls, err := reg.Load(r.spec.Transformers)
		if err != nil {
			return nil, fmt.Errorf("core: loading transformers: %w", err)
		}
		r.transformers = cls
	}
	return r.transformers, nil
}

// planFor returns a pair's plan; nil unless it is an updated class's shell and old-version copy.
func (r *residue) planFor(newAddr, oldCopy rt.Addr) *plan {
	h := r.e.VM.Heap
	if i := h.ClassID(newAddr) - r.planBase; i >= 0 && i < len(r.plans) {
		if p := &r.plans[i]; p.oldCls != nil && p.oldCls.ID == h.ClassID(oldCopy) {
			return p
		}
	}
	return nil
}

// runPause is the transformer phase inside the DSU pause. Class transformers
// always run here (statics must be correct before the program resumes), then
// the object log is walked (eager) or the read barrier armed (adopted).
// Transformers run on synchronous VM threads with collection disabled — the
// log holds raw addresses. An error fails the update; arming happens after the
// only fallible step, so a failed adopted update never arms.
func (r *residue) runPause() error {
	v := r.e.VM
	v.GCDisabled = true
	defer func() { v.GCDisabled = false }()

	// Class transformers first, then objects (paper §3.4).
	if err := r.runClassTransformers(); err != nil {
		return err
	}
	if r.adopts() {
		// Arm only now, before clinit: armed during the class transformers,
		// the barrier would transform on touch what the serial mode leaves to
		// the log walk, and a class transformer reading an updated instance
		// would see its new state instead of the shell's defaults.
		v.Residue.OnTouch = true
		r.stats.LazyPending = r.pending
	} else {
		for _, pair := range r.log {
			if err := r.transform(pair.New); err != nil {
				return err
			}
		}
	}
	r.sealed = time.Now()
	return nil
}

// runClassTransformers executes the class transformer of every updated
// class: as slot-to-slot copies when upt proves jvolveClass a pure static copy
// (Spec.ClassMoves — every generated default is one), interpreted otherwise.
func (r *residue) runClassTransformers() error {
	v := r.e.VM
	for _, name := range r.spec.ClassUpdates {
		cls := v.Reg.LookupClass(name)
		if cls == nil {
			continue
		}
		if r.moveStatics(cls, v.Reg.LookupClass(r.spec.RenamedName(name))) {
			if v.Rec.Enabled() {
				v.Rec.Emit(obs.KTransformerApplied, obs.LaneEngine, 0, "moved statics:"+name)
			}
			continue
		}
		transformers, err := r.transformerClass()
		if err != nil {
			return err
		}
		sig := classfile.Sig("(L" + name + ";)V")
		tm := transformers.Method("jvolveClass", sig)
		if tm == nil {
			continue // class never loaded old-side or no statics to carry
		}
		label := "jvolveClass:" + name
		if err := v.RunSynchronous(label, tm, []rt.Value{rt.NullVal}); err != nil {
			return fmt.Errorf("core: class transformer for %s: %w", name, err)
		}
		v.Rec.Emit(obs.KTransformerApplied, obs.LaneEngine, 0, label)
	}
	return nil
}

// moveStatics runs newCls's class transformer as JTOC slot copies if it is a
// pure static copy the linker can resolve; false leaves it to the bytecode.
func (r *residue) moveStatics(newCls, old *rt.Class) bool {
	fields, ok := r.spec.ClassMoves(newCls.Name)
	if !ok || old == nil {
		return false
	}
	jtoc := r.e.VM.Reg.JTOC
	for _, f := range fields {
		os, ns := old.StaticField(f.From), newCls.StaticField(f.To)
		if os == nil || ns == nil || os.Desc.IsRef() != ns.Desc.IsRef() {
			return false // the bytecode redoes the copies made so far, in the same order
		}
		jtoc[ns.Slot] = jtoc[os.Slot]
	}
	return true
}

// transform retires one pair: the pause's log walk, the read barrier's slow
// path, the Jvolve.forceTransform native (a transformer eagerly transforming
// an object it must dereference) and the forced drain are all this function.
// Cycles are errors (paper §3.4). Inside the pause the caller fails the
// update on the first error. After it a transformer error cannot — the
// program already resumed on the new version — so the policy is
// done-with-defaults: the object keeps whatever fields the collector
// initialized (the §3.4 data-loss failure mode), the error is recorded and
// returned, and the touching thread is killed by the caller.
func (r *residue) transform(newAddr rt.Addr) error {
	h := r.e.VM.Heap
	if newAddr == rt.Null || h.IsArray(newAddr) || h.PairWord(newAddr) == 0 {
		return nil // an array (word 1 is its length), transformed already, or not an updated object
	}
	w := h.PairWord(newAddr)
	if w == heap.Transforming {
		return fmt.Errorf("core: transformer cycle detected at object @%d; aborting update", newAddr)
	}
	// Only pairs retired with the barrier armed are drain work; a pair the
	// pause walked, or a class transformer forced before arming, is
	// accounted by runPause.
	armed := r.e.VM.Residue.OnTouch
	r.adopt() // pairs the pause never saw join the log as if it had made them
	// Transforming is not pending: the transformer's own reads and writes of
	// the half-built object do not re-fire the barrier (the cycle check
	// above still catches true cycles via forceTransform).
	h.SetPairWord(newAddr, heap.Transforming)
	err := r.run(newAddr, rt.Addr(w))
	h.SetPairWord(newAddr, 0)
	r.pending--
	r.stats.TransformedObjects++ // its transformer ran; on an error the object keeps defaults
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	if armed {
		r.completed()
	}
	return err
}

// run executes one pair's object transformer, interpreted jvolveObject. The log
// and the old copies hold raw addresses, so collection is
// disabled around every (possibly nested) transformer run; the flag nests
// because a barrier-invoked transformer can force-transform its neighbors.
func (r *residue) run(newAddr, oldCopy rt.Addr) error {
	v := r.e.VM
	wasDisabled := v.GCDisabled
	v.GCDisabled = true
	defer func() { v.GCDisabled = wasDisabled }()

	if r.adopts() && !r.relocDone {
		// Heal the old copy's slots to canonical addresses before the
		// transformer reads them: a stale from-space reference stored into an
		// already-scanned shell would never be healed again. (Pairs the pause
		// itself evacuated need no heal: their shells are still ahead of the
		// relocation's region cursor, so the scan heals whatever is written now.)
		// A finished relocation has scanned every old copy already.
		r.rl.HealObject(oldCopy)
	}
	p := r.planFor(newAddr, oldCopy)
	if p == nil {
		return fmt.Errorf("core: transformer: the pair word of @%d names @%d, no old copy of an updated class", newAddr, oldCopy)
	}
	if p.tm == nil {
		return fmt.Errorf("core: no object transformer jvolveObject(L%s;L%s;)V", p.newCls.Name, p.oldCls.Name)
	}
	if err := v.RunSynchronous(p.label, p.tm, []rt.Value{rt.RefVal(newAddr), rt.RefVal(oldCopy)}); err != nil {
		return fmt.Errorf("core: object transformer for %s: %w", p.newCls.Name, err)
	}
	v.Rec.Emit(obs.KTransformerApplied, obs.LaneEngine, 1, p.label)
	return nil
}

// completed books one pair retired behind the armed barrier and settles the residue.
func (r *residue) completed() {
	if r.forcing {
		r.stats.LazyForced++
	} else {
		r.stats.LazyDrained++
	}
	if m := r.e.VM.Metrics; m != nil {
		if r.forcing {
			m.Counter(obs.MLazyForced).Add(1)
		} else {
			m.Counter(obs.MLazyDrained).Add(1)
		}
		m.Histogram(obs.MLazyDrainLatency, obs.DurationBuckets()).Observe(time.Since(r.sealed).Seconds())
	}
	r.settle()
}

// settle retires the residue once nothing is outstanding: no pending pair,
// and no relocation that could still add pairs or hold from-space (pending
// may transiently hit zero before the relocation's log is final). A failed
// relocation settles at once — nothing more can drain on a dead heap.
func (r *residue) settle() {
	if r.fatal != nil || (r.pending == 0 && (r.rl == nil || r.relocDone)) {
		r.retire()
	}
}

// leavePause ends the in-pause phase on the success path: retire on the spot
// when the pause left nothing outstanding (always, for the plain eager
// placement), otherwise start the relocation's drain — last, so the
// transformer and clinit phases' allocations land in its first span. From the
// first post-pause slice the scheduler polls tick.
func (r *residue) leavePause() {
	r.settle()
	if !r.retired && r.rl != nil && !r.relocDone {
		r.rl.Start()
	}
}

// tick is the scheduler's between-slices poll: one quantum of the
// relocation's drain, and its finish once the drain has run from-space dry
// (or failed).
func (r *residue) tick() {
	if r.rl != nil && !r.relocDone && r.rl.Step() {
		r.finishReloc()
		r.settle()
	}
}

// finishReloc force-completes the relocation's drain if it has not run
// from-space dry, disarms the load barrier, and stamps the drain statistics.
// From-space is dead afterwards. With the relocation done the pair log is
// final: the adopted placement takes over whatever the mutator never touched.
func (r *residue) finishReloc() {
	if r.rl == nil || r.relocDone {
		return
	}
	r.relocDone = true
	st, err := r.rl.Finish()
	r.stats.Reloc = st
	r.moved(st.Moved)
	if m := r.e.VM.Metrics; m != nil {
		m.Counter(obs.MRelocObjects).Add(int64(st.Objects))
		m.Counter(obs.MRelocHealedSlots).Add(int64(st.HealedSlots))
		m.Gauge(obs.MRelocBacklog).Set(0)
		if err == nil { // a failed drain has no latency to record
			m.Histogram(obs.MRelocDrainLatency, obs.DurationBuckets()).Observe(st.Drain.Seconds())
		}
	}
	// The drain failing post-flip (to-space exhausted mid-evacuation) means
	// from-space was never fully evacuated: some slots still hold from-space
	// addresses and the barrier that made them readable is now gone.
	r.fatal = err
	r.adopt()
}

// force completes everything outstanding on the mutator goroutine and
// retires. Callers: vm.CollectGarbage (a flip cannot run with from-space
// held, and would invalidate the log's raw addresses), Engine.handle on a
// follow-up update (the new pause must not find a half-drained heap), and
// Engine.ForceDrain. This is the one place that orders the two drains: the
// relocation first, because the transformers read old copies whose slots the
// relocation heals, and in the adopted placement finishing the relocation is
// what makes the pair log final. Individual transformer errors do not stop
// the drain — affected objects keep defaults. Returns the relocation's
// failure if it failed (fatal to the heap), else the first transformer error
// recorded (data loss).
func (r *residue) force() error {
	if !r.retired {
		r.finishReloc()
		if r.fatal == nil {
			r.forcing = true
			for _, pair := range r.log {
				if r.retired {
					break
				}
				if r.e.VM.Heap.Pending(pair.New) {
					_ = r.transform(pair.New) // recorded in firstErr; drain must finish
				}
			}
			r.forcing = false
		}
		r.retire()
	}
	if r.fatal != nil {
		return r.fatal
	}
	return r.firstErr
}

// retire is the one teardown. It finishes the relocation if that is still in
// flight (the world must never resume, and no collection may flip, with
// from-space held), marks the heap unusable if the drain failed, zeroes the
// pair words an in-pause failure or a failed drain leaves pending,
// uninstalls the hook, and unlinks the renamed old versions and the
// transformer class so the next collection can reclaim them. The old copies
// need no step: the next flip reclaims them with the space they sit in
// (§3.5: "reclaim it when the collection completes"). After this the VM is
// indistinguishable from one that updated eagerly. It runs on success AND on
// every failure path once the new code is installed: the documented failure
// mode for a transformer error is data loss — some objects keep default field
// values — never dangling old-version classes, stale UpdatedTo links or a
// held from-space (§3.4). Idempotent.
func (r *residue) retire() {
	if r.retired {
		return
	}
	r.retired = true
	v := r.e.VM
	r.finishReloc()
	if r.fatal != nil {
		v.MarkHeapUnusable(r.fatal)
	}
	if r.pending > 0 {
		for _, pair := range r.log {
			v.Heap.SetPairWord(pair.New, 0)
		}
	}
	r.e.residue, v.Residue = nil, nil
	for _, old := range r.renamed {
		old.UpdatedTo, old.Moves = nil, nil
		v.Reg.Unregister(old)
	}
	if r.transformers != nil {
		v.Reg.Unregister(r.transformers)
	}
}

// LazyBacklog reports how many pairs are still pending behind the read
// barrier — the drain backlog — or 0 outside a drain window. It is the
// gauge the stream obs plane samples after every chain step.
func (e *Engine) LazyBacklog() int {
	if e.residue == nil {
		return 0
	}
	return e.residue.pending
}

// RelocBacklog reports how many words the in-flight relocation drain still has
// to scan (gc.Relocation.Backlog) — 0 outside a drain window. The stream
// obs plane samples it after every chain step, next to LazyBacklog.
func (e *Engine) RelocBacklog() int {
	if e.residue == nil {
		return 0
	}
	return e.residue.rl.Backlog()
}

// ForceDrain force-completes the in-flight residue of the last update (see
// residue.force for order and error contract). No-op outside a drain window.
func (e *Engine) ForceDrain() error {
	if e.residue == nil {
		return nil
	}
	return e.residue.force()
}
