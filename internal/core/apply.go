package core

import (
	"errors"
	"fmt"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/gc"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/upt"
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
	// program continues on the OLD version — so the install phase's method
	// body swaps and compiled-code invalidations must come back: a frame
	// parked in a swapped method (e.g. when an OSR rewrite fails) would
	// otherwise keep executing invalidated code with the registry already
	// carrying the new bytecode. After the flip the heap IS the new
	// version and the swaps must stay. fail() rolls back iff !flipped.
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
	type codeInval struct {
		m  *rt.Method
		cm *rt.CompiledMethod
	}
	var bodySwaps []bodySwap
	var defSwaps []defSwap
	var invalidated []codeInval
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
			for _, bs := range bodySwaps {
				bs.m.Def = bs.def
				bs.m.Invocations = bs.invoc
				if bs.cm != nil {
					bs.cm.Invalid = false
					bs.m.Compiled = bs.cm
				}
			}
			for _, ds := range defSwaps {
				ds.cls.Def = ds.def
			}
			for _, ci := range invalidated {
				ci.cm.Invalid = false
				ci.m.Compiled = ci.cm
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
		}
	}

	// Rename all old versions first so their names are free, then load the
	// new versions superclass-first; RVMClass metadata, TIBs and fresh
	// JTOC slots are built by the registry's linker.
	type renamed struct {
		old  *rt.Class
		name string
	}
	var renames []renamed
	for _, name := range spec.ClassUpdates {
		old := reg.LookupClass(name)
		if old == nil {
			continue
		}
		rn := spec.RenamedName(name)
		reg.DetachSubclass(old)
		if err := reg.RenameClass(old, rn, spec.OldFlatDefs[rn]); err != nil {
			return fail(fmt.Errorf("core: install: %w", err))
		}
		renames = append(renames, renamed{old, name})
	}

	toLoad, err := classfile.NewProgram()
	if err != nil {
		return fail(err)
	}
	for _, name := range spec.ClassUpdates {
		if def, ok := spec.New.Classes[name]; ok {
			if err := toLoad.Add(def); err != nil {
				return fail(err)
			}
		}
	}
	for _, name := range spec.AddedClasses {
		if err := toLoad.Add(spec.New.Classes[name]); err != nil {
			return fail(err)
		}
	}
	order, err := rt.SuperFirst(toLoad)
	if err != nil {
		return fail(fmt.Errorf("core: install: %w", err))
	}
	for _, def := range order {
		if _, err := reg.Load(def); err != nil {
			return fail(fmt.Errorf("core: install %s: %w", def.Name, err))
		}
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

	// Invalidate every compiled method whose code bakes in an updated
	// class's layout or inlines an updated method — they recompile against
	// the new metadata on next call (category (2), the "indirect" set).
	updatedOldSet := make(map[*rt.Class]bool, len(renames))
	for _, r := range renames {
		updatedOldSet[r.old] = true
	}
	for _, m := range reg.Methods() {
		cm := m.Compiled
		if cm == nil || cm.Invalid {
			continue
		}
		inline := cm.InlinedAny(cat1)
		stale := inline
		if !stale {
			for dep := range cm.LayoutDeps {
				if updatedOldSet[dep] {
					stale = true
					break
				}
			}
		}
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
		}
	}

	// Flush every inline cache in the compiled code that survives the
	// update. Monotonic class ids already make a stale hit impossible — the
	// renamed old version keeps its id and the new version gets a fresh one,
	// so post-update receivers self-miss — but leaving dead (old-id →
	// old-method) entries in the fast slots would force every surviving
	// site through its slow path until the entry happened to be evicted.
	// Wiping the caches here re-warms them against new class ids on first
	// dispatch. Always safe (an empty cache is just a TIB lookup), so no
	// rollback entry is recorded.
	for _, m := range reg.Methods() {
		if cm := m.Compiled; cm != nil {
			p.res.Stats.ICFlushed += cm.FlushICs()
		}
	}

	// Load the transformer class (replacing any leftover from a previous
	// update; the VM may delete it after transformation).
	if old := reg.LookupClass(upt.TransformersClassName); old != nil {
		reg.Unregister(old)
	}
	transformers, err := reg.Load(spec.Transformers)
	if err != nil {
		return fail(fmt.Errorf("core: loading transformers: %w", err))
	}

	// From here on the residue owns the teardown (see residue.retire): it
	// runs on the success path AND on every post-install failure path (via
	// fail), so a failed update still leaves the VM with consistent metadata.
	resid = &residue{e: e, spec: spec, transformers: transformers, stats: &p.res.Stats}
	for _, r := range renames {
		resid.renamed = append(resid.renamed, r.old)
	}
	resid.buildPlans()

	// --- OSR ---------------------------------------------------------------
	phase("osr", nil)
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
		cm, err := e.VM.JIT.Compile(target, rt.Base)
		if err != nil {
			return fail(fmt.Errorf("core: OSR compile %s: %w", target.FullName(), err))
		}
		if target.Compiled == nil {
			target.Compiled = cm
		}
		if job.active != nil {
			newPC, ok := job.active.PC[f.PC]
			if !ok {
				return fail(fmt.Errorf("core: active-method update: pc %d of %s not in yield-point map", f.PC, m.FullName()))
			}
			if err := e.VM.OSRRewrite(f, cm, newPC, job.active.Locals); err != nil {
				return fail(fmt.Errorf("core: active-method update: %w", err))
			}
			p.res.Stats.ActiveRewrites++
			e.VM.Rec.Emit(obs.KOSRRecompile, obs.LaneEngine, 1, target.FullName())
		} else {
			if err := e.VM.OSRReplace(f, cm); err != nil {
				return fail(fmt.Errorf("core: OSR: %w", err))
			}
			e.VM.Rec.Emit(obs.KOSRRecompile, obs.LaneEngine, 0, target.FullName())
		}
		p.res.Stats.OSRFrames++
	}

	// --- DSU garbage collection ---------------------------------------------
	phase("gc", &p.res.Stats.PauseGC)
	var gcRes gc.Result
	var rl *gc.Relocation
	if e.VM.Concurrent {
		// The pause stops at flip preparation: consume the sealed concurrent
		// mark (drain the SATB log, re-scan roots), flip, eagerly evacuate
		// only the updated-class instances it found (or, composed with
		// LazyTransform, defer even the pairs to the drain), and forward roots.
		// The world resumes with from-space still live behind the
		// self-healing load barrier; rl is the drain the residue starts at
		// the end of the pause and finishes once the background relocator
		// runs it dry — nil when the engine gave up on the mark and this is
		// the stop-the-world collection after all.
		gcRes, rl, err = e.VM.GC.CollectReloc(e.VM, e.VM.LazyTransform)
	} else {
		gcRes, err = e.VM.GC.Collect(e.VM, true)
	}
	if err != nil {
		if errors.Is(err, gc.ErrPreFlip) {
			// The collection failed before the semispace flip: nothing was
			// copied or forwarded and no root was rewritten, so the heap is
			// fully usable. Fail the update cleanly — fail() restores
			// metadata consistency and the VM runs on, on the old version.
			return fail(fmt.Errorf("core: DSU collection: %w", err))
		}
		// A post-flip failure leaves the heap unusable — the semispace flip
		// already happened and an unknown subset of roots is forwarded. Mark
		// it fatal so allocations fail fast with the typed cause
		// (gc.ErrToSpaceExhausted surfaces in vm.DeadErrors with OOM set);
		// fail() still restores metadata consistency before reporting: even
		// a dead-heap VM must not dangle renamed classes or UpdatedTo links.
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
