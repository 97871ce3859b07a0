package core

import (
	"fmt"
	"slices"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/gc"
	"govolve/internal/jit"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/vm"
)

// apply commits the update at a DSU safe point. Order (paper §3.3–3.4):
// install modified classes and metadata → OSR category-(2) frames (and
// active-method rewrites) → DSU garbage collection → class transformers →
// object transformers → class initializers of brand-new classes → resume.
//
// It returns nil when the update committed; any error means Failed.
func (e *Engine) apply(p *Pending, osrJobs []osrJob, cat1 map[*rt.Method]bool) error {
	spec := p.Spec
	reg := e.VM.Reg
	totalStart := time.Now()

	// resid is built once the install phase has loaded the new code (see
	// below); fail retires it on every post-install failure path. Before
	// that it is nil and fail only stamps the pause accounting.
	var resid *residue

	// Until the DSU collection flips the heap, a failed update means the
	// program continues on the OLD version — so everything the install phase
	// did must come back: the registry (the new versions out, the renamed
	// old versions back under their names, the deleted classes back), the
	// method body swaps, the compiled-code invalidations and the frames the
	// OSR phase moved. A frame parked
	// in a swapped method (e.g. when an OSR rewrite fails) would otherwise
	// keep executing invalidated code with the registry already carrying the
	// new bytecode, and the old version's live instances would belong to no
	// registered class. After the flip the heap IS the new version and the
	// install must stay. fail() rolls back iff !flipped.
	type bodySwap struct {
		m     *rt.Method
		def   *classfile.Method
		cm    *rt.CompiledMethod
		invoc int
	}
	type defSwap struct {
		cls *rt.Class
		def *classfile.Class
	}
	// codeInval restores a method's code: the code the install invalidated,
	// or none for a new version's method the install relinked code for; in
	// both cases without relinked code.
	type codeInval struct {
		m  *rt.Method
		cm *rt.CompiledMethod
	}
	// frameMove is a frame the OSR phase moved onto new code, as it was: its
	// code, its pc and, when an active-method rewrite remapped them, its
	// locals.
	type frameMove struct {
		f      *vm.Frame
		cm     *rt.CompiledMethod
		pc     int
		locals []rt.Value
	}
	var moves []frameMove
	var installed []*rt.Method // methods the OSR phase gave their first code
	// renamed is an old version the install renamed, and how to undo that.
	type renamed struct {
		old  *rt.Class
		name string
		undo rt.Renaming
	}
	var deleted, loads []*rt.Class
	var renames []renamed
	var bodySwaps []bodySwap
	var defSwaps []defSwap
	var invalidated []codeInval
	var patches []jit.Patch // the retired code relinking rewrote in place
	flipped := false

	// phase closes the open phase — its engine-lane span, and its wall time
	// into the Stats field it names, if any — and opens the next. fail and
	// the deferred close end the last one through the same closer, so a
	// failed update's pause histograms see its true cost and PauseTotal ≥
	// install+gc+transform holds for every outcome.
	var endSpan func()
	var stamp *time.Duration
	var phaseStart time.Time
	closePhase := func() {
		if endSpan == nil {
			return
		}
		if stamp != nil {
			*stamp = time.Since(phaseStart)
		}
		endSpan()
		endSpan = nil
	}
	phase := func(name string, d *time.Duration) {
		closePhase()
		endSpan, stamp, phaseStart = e.span(name), d, time.Now()
	}

	fail := func(err error) error {
		// A failed update stopped the world just like an applied one.
		closePhase()
		p.res.Stats.PauseTotal = time.Since(totalStart)
		if !flipped {
			for _, mv := range moves {
				mv.f.CM, mv.f.PC = mv.cm, mv.pc
				copy(mv.f.Locals, mv.locals)
			}
			for _, m := range installed {
				m.Compiled = nil
			}
			for _, c := range loads {
				reg.DetachSubclass(c)
				reg.Unregister(c)
			}
			for _, r := range renames {
				r.old.UpdatedTo, r.old.Moves = nil, nil
				reg.UndoRename(r.undo)
			}
			for _, c := range deleted {
				reg.Reinstate(c)
			}
			if resid != nil {
				resid.renamed = nil // back in service: retire must not unregister them
			}
			for _, bs := range bodySwaps {
				bs.m.Def, bs.m.Invocations, bs.m.Compiled = bs.def, bs.invoc, bs.cm
				if bs.cm != nil {
					bs.cm.Invalid = false
				}
			}
			for _, ds := range defSwaps {
				ds.cls.Def = ds.def
			}
			for _, p := range patches {
				*p.At = p.Was
			}
			for _, ci := range invalidated {
				if ci.cm != nil {
					ci.cm.Invalid = false
				}
				ci.m.Compiled, ci.m.Relinked = ci.cm, nil
			}
		}
		if resid != nil {
			resid.retire()
		}
		return err
	}

	// The stop-the-world window: every live thread is parked at a VM safe
	// point for the duration of apply. Mark it on each thread's timeline
	// lane so the pause is visible per thread, not just on the engine lane.
	if rec := e.VM.Rec; rec.Enabled() {
		for _, t := range e.VM.Threads {
			if t.State == vm.Dead {
				continue
			}
			rec.Emit(obs.KThreadStop, obs.LaneThread(t.ID), 0, "dsu pause")
		}
		defer func() {
			for _, t := range e.VM.Threads {
				if t.State == vm.Dead {
					continue
				}
				rec.Emit(obs.KThreadResume, obs.LaneThread(t.ID), 0, "dsu pause")
			}
		}()
	}
	endTotal := e.span("update pause")
	defer endTotal()
	defer closePhase()

	// --- Install -----------------------------------------------------------
	phase("install", &p.res.Stats.PauseInstall)

	for _, name := range spec.DeletedClasses {
		if cls := reg.LookupClass(name); cls != nil {
			reg.DetachSubclass(cls)
			reg.Unregister(cls)
			deleted = append(deleted, cls)
		}
	}

	// Rename all old versions first so their names are free, then load the
	// new versions superclass-first; RVMClass metadata, TIBs and fresh
	// JTOC slots are built by the registry's linker.
	for _, name := range spec.ClassUpdates {
		old := reg.LookupClass(name)
		if old == nil {
			continue
		}
		rn := spec.RenamedName(name)
		reg.DetachSubclass(old)
		undo, err := reg.RenameClass(old, rn, spec.OldFlatDefs[rn])
		if err != nil {
			reg.Reinstate(old)
			return fail(fmt.Errorf("core: install: %w", err))
		}
		renames = append(renames, renamed{old, name, undo})
	}

	loaded := len(reg.Methods()) // the methods that can hold code
	for _, def := range spec.LoadOrder() {
		c, err := reg.Load(def)
		if err != nil {
			return fail(fmt.Errorf("core: install %s: %w", def.Name, err))
		}
		loads = append(loads, c)
	}
	for _, r := range renames {
		newCls := reg.LookupClass(r.name)
		if newCls == nil {
			return fail(fmt.Errorf("core: install: new version of %s missing", r.name))
		}
		r.old.UpdatedTo = newCls
	}

	// Method-body updates: swap the bytecode behind existing method
	// identities and invalidate their compiled code; the JIT recompiles on
	// next invocation and the adaptive system re-optimizes over time.
	for _, ref := range spec.MethodBodyUpdates {
		cls := reg.LookupClass(ref.Class)
		ndef := spec.New.Classes[ref.Class]
		if cls == nil || ndef == nil {
			continue
		}
		m := cls.Method(ref.Name, ref.Sig)
		nm := ndef.Method(ref.Name, ref.Sig)
		if m == nil || nm == nil {
			return fail(fmt.Errorf("core: method body update %s: method missing", ref))
		}
		bodySwaps = append(bodySwaps, bodySwap{m: m, def: m.Def, cm: m.Compiled, invoc: m.Invocations})
		m.Def = nm
		if m.Compiled != nil {
			m.Compiled.Invalid = true
			m.Compiled = nil
		}
		m.Invocations = 0 // profiles are invalidated (paper §3.3)
		p.res.Stats.InvalidatedMethods++
		p.res.Stats.InvalidatedBody++
	}
	// Refresh whole definitions of body-updated classes so later diffs and
	// verification see current code.
	seen := map[string]bool{}
	for _, ref := range spec.MethodBodyUpdates {
		if seen[ref.Class] {
			continue
		}
		seen[ref.Class] = true
		if cls := reg.LookupClass(ref.Class); cls != nil {
			if ndef := spec.New.Classes[ref.Class]; ndef != nil {
				defSwaps = append(defSwaps, defSwap{cls: cls, def: cls.Def})
				cls.Def = ndef
			}
		}
	}

	// One walk over the compiled code of every method loaded before this
	// update. Code whose baked-in layout names a replaced class, or that
	// inlined a changed method, is invalidated (category (2), the "indirect"
	// set). Where its bytecode is unchanged and its next call would compile
	// it at its level, it is relinked instead (jit.Compiler.Relink, which
	// refuses code using a fact the new versions do not keep): the relinked
	// code is left for that call to install instead of a compile
	// (rt.Method.Relinked), on the method itself or, for an old version's
	// method, on the new version's. Relinked code an earlier update left and
	// no call took is dropped: it names classes this one may replace. Code
	// that survives has its inline
	// caches flushed: monotonic class ids already make a stale hit impossible
	// — the renamed old version keeps its id and the new version gets a fresh
	// one, so post-update receivers self-miss — but leaving dead (old-id →
	// old-method) entries in the fast slots would force every surviving site
	// through its slow path until the entry happened to be evicted. Wiping
	// the caches re-warms them against new class ids on first dispatch; it
	// is always safe (an empty cache is just a TIB lookup), so no rollback
	// entry is recorded for it.
	hidden := hiddenMembers(spec, reg)
	for _, m := range reg.Methods()[:loaded] {
		m.Relinked = nil
		cm := m.Compiled
		if cm == nil || cm.Invalid {
			continue
		}
		inline := cm.InlinedAny(cat1)
		stale := inline || cm.DependsOnReplaced()
		if stale {
			invalidated = append(invalidated, codeInval{m: m, cm: cm})
			cm.Invalid = true
			m.Compiled = nil
			p.res.Stats.InvalidatedMethods++
			if inline {
				p.res.Stats.InvalidatedInline++
			} else {
				p.res.Stats.InvalidatedLayout++
			}
		} else {
			p.res.Stats.ICFlushed += cm.FlushICs()
		}
		target := m
		if m.Class.UpdatedTo != nil {
			target = m.Counterpart()
		} else if !stale {
			continue
		}
		if inline || cat1[m] || target == nil || cm.Level != e.VM.NextLevel(target) {
			continue
		}
		if rc := e.VM.JIT.Relink(cm, target, hidden, &patches); rc != nil {
			if target != m {
				invalidated = append(invalidated, codeInval{m: target})
			}
			target.Relinked = rc
		}
	}

	// From here on the residue owns the teardown (see residue.retire): it
	// runs on the success path AND on every post-install failure path (via
	// fail), so a failed update still leaves the VM with consistent metadata.
	resid = &residue{e: e, spec: spec, stats: &p.res.Stats}
	for _, r := range renames {
		resid.renamed = append(resid.renamed, r.old)
	}
	if err := resid.buildPlans(); err != nil {
		return fail(err)
	}

	// --- OSR ---------------------------------------------------------------
	phase("osr", nil)
	var err error
	for _, job := range osrJobs {
		f := job.frame
		m := f.CM.Method
		target := m
		if m.Class.Renamed && m.Class.UpdatedTo != nil {
			// The class was replaced; continue in the new version's
			// method of the same identity. (For body-only updates the
			// same rt.Method now carries the new bytecode.)
			target = m.Class.UpdatedTo.Method(m.Def.Name, m.Def.Sig)
			if target == nil {
				return fail(fmt.Errorf("core: OSR: %s has no counterpart in new version", m.FullName()))
			}
		}
		// The first frame OSRed into a method with no code installs base code
		// for it: the relinked code, if the walk left base code, else a compile.
		cm := target.Relinked
		if cm == nil || cm.Level != rt.Base || target.Compiled != nil {
			if cm, err = e.VM.JIT.Compile(target, rt.Base); err != nil {
				return fail(fmt.Errorf("core: OSR compile %s: %w", target.FullName(), err))
			}
		}
		if target.Compiled == nil {
			target.Compiled, target.Relinked = cm, nil
			installed = append(installed, target)
		}
		// A move that fails leaves its frame as it was; one that succeeds is
		// recorded, because a later job can still fail the update.
		mv := frameMove{f: f, cm: f.CM, pc: f.PC}
		if job.active != nil {
			newPC, ok := job.active.PC[f.PC]
			if !ok {
				return fail(fmt.Errorf("core: active-method update: pc %d of %s not in yield-point map", f.PC, m.FullName()))
			}
			if job.active.Locals != nil {
				mv.locals = slices.Clone(f.Locals)
			}
			if err := e.VM.OSRRewrite(f, cm, newPC, job.active.Locals); err != nil {
				return fail(fmt.Errorf("core: active-method update: %w", err))
			}
			p.res.Stats.ActiveRewrites++
		} else if err := e.VM.OSRReplace(f, cm); err != nil {
			return fail(fmt.Errorf("core: OSR: %w", err))
		}
		moves = append(moves, mv)
		if e.VM.Rec.Enabled() { // names are built for a recorder only
			active := int64(0)
			if job.active != nil {
				active = 1
			}
			e.VM.Rec.Emit(obs.KOSRRecompile, obs.LaneEngine, active, target.FullName())
		}
		p.res.Stats.OSRFrames++
	}

	// --- DSU garbage collection ---------------------------------------------
	phase("gc", &p.res.Stats.PauseGC)
	var gcRes gc.Result
	var rl *gc.Relocation
	if e.VM.Concurrent {
		// The pause stops at flip preparation: flip, forward the roots
		// (pairing or moving the updated-class instances they point at), and
		// defer every other pair to the drain. The world resumes with
		// from-space still live behind the self-healing load barrier; rl is
		// the drain the residue starts at the end of the pause, runs a
		// quantum of between scheduler slices, and finishes once it runs dry.
		gcRes, rl, err = e.VM.GC.CollectReloc(e.VM)
	} else {
		gcRes, err = e.VM.GC.Collect(e.VM, true)
	}
	if err != nil {
		// A failure leaves the heap unusable — the semispace flip already
		// happened and an unknown subset of roots is forwarded. Mark it fatal
		// so allocations fail fast with the typed cause (gc.ErrToSpaceExhausted
		// surfaces in vm.DeadErrors with OOM set); fail() still restores
		// metadata consistency before reporting: even a dead-heap VM must not
		// dangle renamed classes or UpdatedTo links.
		flipped = true
		e.VM.MarkHeapUnusable(err)
		return fail(fmt.Errorf("core: DSU collection: %w", err))
	}
	flipped = true
	p.res.Stats.Collection = gcRes.Collection
	resid.attach(&gcRes, rl)

	// --- Transformers --------------------------------------------------------
	phase("transform", &p.res.Stats.PauseTransform)
	if err := resid.runPause(); err != nil {
		// Partially transformed objects keep default field values (data
		// loss), but the metadata must come back consistent (fail retires
		// the residue) so the VM stays serviceable.
		return fail(err)
	}

	// --- Class initializers of brand-new classes -----------------------------
	// The residue hook is still installed here, deliberately: with on-touch
	// transformation a clinit that touches updated-class instances transforms
	// them on first use, keeping its observable behaviour identical to eager
	// mode, and a clinit-triggered collection can force the residue.
	phase("clinit", nil)
	for _, name := range spec.AddedClasses {
		if cls := reg.LookupClass(name); cls != nil {
			if err := e.VM.RunClinit(cls); err != nil {
				return fail(fmt.Errorf("core: <clinit> of added class %s: %w", name, err))
			}
		}
	}

	// The old class versions and the transformer class have done their job
	// unless something is still outstanding — pending pairs (the drain
	// resolves old-copy class ids through the renamed versions and runs
	// transformer methods) or an unfinished relocation (it sizes old copies
	// by their old class ids) — in which case the residue outlives the pause.
	resid.leavePause()

	p.res.Stats.PauseTotal = time.Since(totalStart)
	return nil
}
