// Package core is the JVOLVE DSU engine — the paper's contribution. It
// coordinates the VM services the rest of the repository provides:
//
//  1. The user signals the VM with an update specification (upt.Spec).
//  2. The engine sets the yield flag; threads stop at VM safe points.
//  3. It checks every stack for restricted methods: category (1) methods
//     whose bytecode changed, category (2) methods whose compiled code
//     bakes in stale offsets, and category (3) user-blacklisted methods.
//     Category-(2) base-compiled frames are OSR-able and do not block.
//  4. Blocking frames get return barriers on the topmost restricted frame
//     of each thread; when one fires the attempt restarts. A timeout
//     aborts the update (15 s by default, as in the paper).
//  5. At a DSU safe point it installs the update: renames old classes,
//     loads new ones, replaces method bodies, invalidates stale compiled
//     code, loads the transformer class, OSRs category-(2) frames.
//  6. It runs a DSU garbage collection that pairs every instance of an
//     updated class with a fresh new-class object, then executes class
//     transformers and object transformers over the update log (with
//     recursive force-transform and cycle detection).
package core

import (
	"fmt"
	"time"

	"govolve/internal/gc"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/verifier"
	"govolve/internal/vm"
)

// Outcome classifies how an update attempt finished.
type Outcome int

const (
	// Applied means the update committed and the program resumed on the
	// new version.
	Applied Outcome = iota
	// Aborted means no DSU safe point was reached before the timeout; the
	// program continues on the old version, unharmed.
	Aborted
	// Failed means the update errored mid-flight (verification passed but
	// e.g. a transformer trapped or cycled); the VM state is suspect.
	Failed
)

func (o Outcome) String() string {
	switch o {
	case Applied:
		return "applied"
	case Aborted:
		return "aborted"
	default:
		return "failed"
	}
}

// Stats reports the measurable behaviour of one update — the quantities
// behind the paper's Table 1 and the §4 experience narrative. It is the
// update's record on /metrics too: each field's tag names the series it
// feeds (obs.Registry.Publish), and the engine publishes it at the seal and
// again when a residue that outlived the pause retires.
type Stats struct {
	Attempts           int  `metric:"govolve_dsu_attempts_to_safe_point,histogram"`
	BarriersInstalled  int  `metric:"govolve_dsu_barriers_installed_total,counter"`
	OSRFrames          int  `metric:"govolve_dsu_osr_frames_total,counter"`
	ActiveRewrites     int  `metric:"govolve_dsu_active_rewrites_total,counter"`   // UpStare-style rewrites of changed on-stack methods
	Immediate          bool `metric:"govolve_dsu_updates_immediate_total,counter"` // safe point reached on the first attempt
	InvalidatedMethods int  `metric:"-,the sum of the three reasons below, each its own series"`
	// InvalidatedMethods decomposed by reason: Body counts direct bytecode
	// swaps (category (1) identities kept alive via MethodBodyUpdates),
	// Inline counts compiled methods that had inlined an updated method,
	// Layout counts code whose baked field offsets or TIB slots referenced a
	// renamed class. Body+Inline+Layout == InvalidatedMethods.
	InvalidatedBody   int `metric:"govolve_jit_invalidations_body_total,counter"`
	InvalidatedInline int `metric:"govolve_jit_invalidations_inline_total,counter"`
	InvalidatedLayout int `metric:"govolve_jit_invalidations_layout_total,counter"`
	// ICFlushed counts inline-cache entries cleared from surviving compiled
	// code at install: every cached (class id → target) pair keyed by an
	// old-version class is stale the moment the rename commits, so the
	// install phase wipes them all and lets the sites re-warm against the
	// new class ids.
	ICFlushed          int `metric:"govolve_jit_ic_flushes_total,counter"`
	TransformedObjects int `metric:"govolve_dsu_transformed_objects_total,counter"`

	// Collection is the DSU collection's own record, stored whole (gc.go):
	// copied objects and words (old copies in from-space's tail, §3.5,
	// included and counted again in TailWords) and the pause's copy time.
	// Relocated records that the DSU copy ran as a relocation, whose drain
	// is Reloc. PairsLogged also counts the pairs the adopted
	// placement takes over from the drain (residue.adopt); it can exceed
	// TransformedObjects - MovedObjects only if the update fails mid-phase.
	gc.Collection

	// MovedObjects counts updated-class instances whose transformer is a
	// move transformer (upt.Spec.ObjectMoves): the collector wrote them once,
	// in their new layout, as it copied them — no pair, no transformer run.
	// TransformedObjects == PairsLogged + MovedObjects once every pair has
	// been transformed (at the end of the pause, eager; after the drain
	// otherwise). A relocation adds its drain's share when it ends.
	MovedObjects int `metric:"govolve_gc_dsu_moved_objects_total,counter"`

	SafePointDelay time.Duration `metric:"govolve_dsu_safe_point_delay_seconds,histogram"` // request → DSU safe point
	// Each pause phase's wall time. PauseGC includes the collection's
	// Duration and so its PauseCopy; the remainder is bookkeeping.
	PauseInstall   time.Duration `metric:"govolve_dsu_pause_install_seconds,histogram"`
	PauseGC        time.Duration `metric:"govolve_dsu_pause_gc_seconds,histogram"`
	PauseTransform time.Duration `metric:"govolve_dsu_pause_transform_seconds,histogram"`
	PauseTotal     time.Duration `metric:"govolve_dsu_pause_total_seconds,histogram"`

	// On-touch transformation's decomposition (vm.Options.Concurrent; the
	// names are the §5 lazy hybrid's). LazyPending is the pair count left
	// pending when the pause ended, plus the pairs the relocation's drain
	// made since; LazyDrained were then transformed by the read barrier on
	// first touch, LazyForced by a forced drain (collection, follow-up
	// update, or ForceDrain).
	// Drained+Forced converges to Pending, and TransformedObjects to the
	// eager count, as the drain completes; these fields keep updating after
	// the Result is sealed, until the drain finishes.
	LazyPending int `metric:"govolve_dsu_lazy_pending_total,counter"`
	LazyDrained int `metric:"govolve_dsu_lazy_drained_total,counter"`
	LazyForced  int `metric:"govolve_dsu_lazy_forced_total,counter"`

	// RelocBacklog is always 0: retire publishes it, so the gauge reads 0
	// once the drain has finished. The seal sets no gauge, because between
	// updates the gauge holds stream's sample of the live backlog
	// (Engine.RelocBacklog), which the reloc-backlog gate reads.
	RelocBacklog int `metric:"govolve_dsu_reloc_backlog,gauge"`

	// Reloc is the relocation's drain (Relocated): the post-pause
	// evacuations (the in-pause share stays in CopiedObjects/CopiedWords),
	// healed slots, deferred pairs and the drain's wall clock — copy cost
	// that no longer sits in the pause. Like the Lazy* block it is stamped
	// at drain finalize, after the Result is sealed.
	Reloc gc.RelocStats
}

// Result is the terminal state of an update request.
type Result struct {
	Outcome Outcome `metric:"govolve_dsu_updates_%s_total,enum"`
	Err     error   `metric:"-,its text is the flight recorder's terminal event"`
	Stats   Stats
	// Verdict is the health-gate judgment of this update, evaluated over
	// metric snapshots taken at request, safe point and seal. Nil when no
	// gate engine is attached.
	Verdict *obs.Verdict `metric:"-,the gate engine publishes its own govolve_gate_* series"`
}

// GatePolicy selects how the engine reacts to a FAIL verdict — the
// single-VM precursor of fleet auto-revert.
type GatePolicy int

const (
	// GateObserve records verdicts without acting on them (default).
	GateObserve GatePolicy = iota
	// GateHalt refuses further updates after a FAIL verdict until
	// ClearHalt — the "stop the rollout" reaction.
	GateHalt
)

func (p GatePolicy) String() string {
	if p == GateHalt {
		return "halt"
	}
	return "observe"
}

// Options tunes one update request.
type Options struct {
	// Timeout aborts the update if no DSU safe point is reached. The
	// paper uses 15 seconds; zero means that default.
	Timeout time.Duration
	// MaxAttempts, if positive, bounds safe-point attempts — a
	// deterministic alternative to the wall-clock timeout for tests.
	MaxAttempts int
	// OSROpt extends on-stack replacement to opt-compiled category-(2)
	// frames whose pc lies outside any inlined region (the paper's "we
	// plan to support OSR on opt-compiled methods as well").
	OSROpt bool
}

// Pending tracks an in-flight update request.
type Pending struct {
	Spec  *upt.Spec
	Opts  Options
	start time.Time
	// res is the request's Result from the start, so everything that books
	// statistics — including a residue that outlives the pause — writes to
	// the one address the caller will read. It is published (Result returns
	// it) once done is set.
	res     *Result
	done    bool
	barrier map[*vm.Frame]bool

	// The restricted method sets and the resolved active-method maps,
	// built at the request's first safe-point attempt and kept for the
	// rest: the registry does not change between the attempts of one
	// request.
	cat1       map[*rt.Method]bool
	updatedOld map[*rt.Class]bool
	active     map[*rt.Method]upt.ActivePCMap

	// Gate-window snapshots: the registry at request time and at the DSU
	// safe point. The closing snapshot is taken at seal (finish).
	gateBefore *obs.Snapshot
	gateDuring *obs.Snapshot
}

// Done reports whether the request has finished.
func (p *Pending) Done() bool { return p.done }

// Result returns the terminal result, or nil while in flight.
func (p *Pending) Result() *Result {
	if !p.done {
		return nil
	}
	return p.res
}

// Engine drives updates against one VM.
type Engine struct {
	VM *vm.VM

	// AfterUpdate, if set, runs synchronously the instant an update request
	// resolves (applied, aborted, or failed) — after barriers are cleared
	// and the result is sealed, but before any application thread takes
	// another step. The storm harness hangs its whole-VM invariant checker
	// here so violations are caught at the exact safe point that produced
	// them, not masked by subsequent mutator activity.
	AfterUpdate func(*Result)

	// Gate, if non-nil, evaluates health gates over metric snapshots
	// bracketing every update (taken from VM.Metrics) and stamps the
	// judgment on Result.Verdict. Attach with AttachGates.
	Gate *obs.GateEngine
	// GatePolicy is the engine's reaction to a FAIL verdict.
	GatePolicy GatePolicy

	pending *Pending
	// residue is what the most recent update's collection left outstanding
	// (pending pairs, an in-flight relocation), nil outside a drain window.
	residue *residue
	// halt holds the FAIL verdict that tripped GateHalt; while set,
	// RequestUpdate refuses new updates.
	halt *obs.Verdict
	// Updates records every finished update, in order.
	Updates []*Result
}

// NewEngine attaches a DSU engine to a VM.
func NewEngine(v *vm.VM) *Engine {
	e := &Engine{VM: v}
	v.UpdateHandler = e.handle
	return e
}

// AttachGates arms per-update health gating: every update from here on is
// judged by g over snapshots of the VM's metrics registry, and a FAIL
// verdict triggers the given policy. The gate engine should publish into
// (or at least read the same series as) VM.Metrics.
func (e *Engine) AttachGates(g *obs.GateEngine, policy GatePolicy) {
	e.Gate = g
	e.GatePolicy = policy
}

// Halted returns the FAIL verdict that halted the update chain under
// GateHalt, or nil when updates are admissible.
func (e *Engine) Halted() *obs.Verdict { return e.halt }

// ClearHalt re-admits updates after a GateHalt trip — the operator's
// explicit "rollout may continue" acknowledgment.
func (e *Engine) ClearHalt() { e.halt = nil }

// RequestUpdate checks the new code and transformers, then arms the VM: the
// scheduler will attempt the update at the next safe point. It fails fast
// (before stopping anything) if the updated program did not verify when
// upt.Prepare made the spec, or the transformers do not verify now — the
// type-safety gate the paper gets from bytecode verification.
func (e *Engine) RequestUpdate(spec *upt.Spec, opts Options) (*Pending, error) {
	if e.pending != nil && !e.pending.Done() {
		return nil, fmt.Errorf("core: an update is already in flight")
	}
	if e.halt != nil {
		return nil, fmt.Errorf("core: updates halted by gate policy (%s); ClearHalt to resume", e.halt)
	}
	if err := e.VM.FatalHeap; err != nil {
		return nil, fmt.Errorf("core: update refused: %w", err)
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if err := verifyUpdate(spec); err != nil {
		return nil, err
	}
	p := &Pending{Spec: spec, Opts: opts, start: time.Now(), res: &Result{}, barrier: make(map[*vm.Frame]bool)}
	if e.Gate != nil {
		// Open the gate window on fresh numbers: publish the VM's own
		// deltas, then snapshot.
		e.VM.PublishMetrics()
		p.gateBefore = e.VM.Metrics.TakeSnapshot()
	}
	e.pending = p
	e.VM.Rec.Emit(obs.KUpdateRequested, obs.LaneEngine, 0, spec.OldTag)
	e.VM.SetUpdatePending(true)
	e.VM.RequestStop()
	return p, nil
}

// span emits a phase-begin event on the engine lane and returns the matching
// phase-end closure. Nil-recorder safe (Emit no-ops).
func (e *Engine) span(name string) func() {
	e.VM.Rec.Emit(obs.KPhaseBegin, obs.LaneEngine, 0, name)
	return func() { e.VM.Rec.Emit(obs.KPhaseEnd, obs.LaneEngine, 0, name) }
}

// ApplyNow requests the update and drives the scheduler until it resolves.
// Convenience for tests, examples and the benchmark harness; servers under
// load instead keep calling VM.Step and poll Pending.Done.
func (e *Engine) ApplyNow(spec *upt.Spec, opts Options) (*Result, error) {
	p, err := e.RequestUpdate(spec, opts)
	if err != nil {
		return nil, err
	}
	for !p.Done() {
		e.VM.Step(1)
	}
	return p.Result(), nil
}

// verifyUpdate reads the strict verdict upt.Prepare recorded on the new
// version and type-checks the transformer class, relaxed (the JastAdd
// special case), in the spec's environment: the transformers are the one
// part of a spec a caller may still edit after Prepare.
func verifyUpdate(spec *upt.Spec) error {
	verdict, prepared := spec.Verdict()
	if !prepared {
		return fmt.Errorf("core: update refused: the spec was not made by upt.Prepare")
	}
	if verdict != nil {
		return fmt.Errorf("core: update rejected: %w", verdict)
	}
	if err := spec.Transformers.Validate(); err != nil {
		return fmt.Errorf("core: transformers rejected: %w", err)
	}
	if err := verifier.New(spec, verifier.Relaxed).VerifyClass(spec.Transformers); err != nil {
		return fmt.Errorf("core: transformers rejected: %w", err)
	}
	return nil
}

// restriction is the DSU-safe-point classification of one frame.
type restriction int

const (
	frameFree restriction = iota
	frameOSR              // category (2), base-compiled: replace on stack
	frameBlocking
)

// restrictedSets computes the method sets driving the safe-point check.
func (e *Engine) restrictedSets(spec *upt.Spec) (cat1 map[*rt.Method]bool, updatedOld map[*rt.Class]bool) {
	reg := e.VM.Reg
	cat1 = make(map[*rt.Method]bool)
	updatedOld = make(map[*rt.Class]bool)

	for _, name := range spec.ClassUpdates {
		cls := reg.LookupClass(name)
		if cls == nil {
			continue // never loaded: nothing on stack, nothing in heap
		}
		updatedOld[cls] = true
		for _, ref := range spec.ChangedMethods(name) {
			if m := cls.Method(ref.Name, ref.Sig); m != nil && m.Class == cls {
				cat1[m] = true
			}
		}
	}
	for _, ref := range spec.MethodBodyUpdates {
		if cls := reg.LookupClass(ref.Class); cls != nil {
			if m := cls.Method(ref.Name, ref.Sig); m != nil {
				cat1[m] = true
			}
		}
	}
	for _, name := range spec.DeletedClasses {
		if cls := reg.LookupClass(name); cls != nil {
			for _, m := range cls.DeclaredMethods() {
				cat1[m] = true
			}
		}
	}
	for _, ref := range spec.Blacklist {
		if cls := reg.LookupClass(ref.Class); cls != nil {
			if m := cls.Method(ref.Name, ref.Sig); m != nil {
				cat1[m] = true
			}
		}
	}
	return cat1, updatedOld
}

// activeMaps resolves the spec's active-method (UpStare-style) yield-point
// maps against live methods.
func (e *Engine) activeMaps(spec *upt.Spec) map[*rt.Method]upt.ActivePCMap {
	if len(spec.ActiveUpdates) == 0 {
		return nil
	}
	out := make(map[*rt.Method]upt.ActivePCMap, len(spec.ActiveUpdates))
	for ref, m := range spec.ActiveUpdates {
		if cls := e.VM.Reg.LookupClass(ref.Class); cls != nil {
			if rm := cls.Method(ref.Name, ref.Sig); rm != nil {
				out[rm] = m
			}
		}
	}
	return out
}

// osrJob is one frame to rewrite at the DSU safe point. A nil active map is
// ordinary category-(2) OSR; otherwise it is an active-method update and
// newPC comes from the user's yield-point map.
type osrJob struct {
	frame  *vm.Frame
	active *upt.ActivePCMap
}

// classify determines a frame's restriction. With osrOpt, opt-compiled
// stale frames parked at a mappable pc are OSR-able too (the extension the
// paper leaves as future work); frames inside inlined regions still block.
func classify(f *vm.Frame, cat1 map[*rt.Method]bool, updatedOld map[*rt.Class]bool, osrOpt bool) restriction {
	cm := f.CM
	if cat1[cm.Method] {
		return frameBlocking
	}
	if cm.InlinedAny(cat1) {
		// An updated method is inlined here; the old body would keep
		// running after the update (paper: "we should also restrict n").
		return frameBlocking
	}
	if !cm.DependsOnAny(updatedOld) {
		return frameFree
	}
	if cm.Level == rt.Base {
		return frameOSR
	}
	if osrOpt && vm.OSRMappable(f) {
		return frameOSR
	}
	return frameBlocking
}

// handle is the VM's update hook: one safe-point attempt. All application
// threads are stopped at VM safe points when it runs. It returns true when
// the request is finished (applied, aborted, or failed).
func (e *Engine) handle() bool {
	p := e.pending
	if p == nil || p.Done() {
		return true
	}
	if e.residue != nil {
		// A follow-up update arrived mid-drain: force-complete the previous
		// update's residue first, so its pair log, old copies, renamed
		// old versions and from-space hold retire before this update builds
		// its own (this update's collection cannot flip a heap with an armed
		// load barrier). Transformer errors during the forced drain are the
		// affected objects' data loss, not this update's failure.
		_ = e.residue.force()
	}
	if err := e.VM.FatalHeap; err != nil {
		// A failed drain (just now, or any earlier collection failure) left
		// slots holding from-space addresses: installing classes and flipping
		// such a heap would only spread the damage. Nothing has been done
		// yet, so nothing needs rolling back.
		e.finish(p, Failed, fmt.Errorf("core: update refused: %w", err))
		return true
	}
	p.res.Stats.Attempts++

	if p.cat1 == nil {
		p.cat1, p.updatedOld = e.restrictedSets(p.Spec)
		p.active = e.activeMaps(p.Spec)
	}
	cat1, updatedOld, active := p.cat1, p.updatedOld, p.active
	var osrJobs []osrJob
	blocked := false
	var blockingFrame *vm.Frame // first restricted frame that blocked this attempt
	for _, t := range e.VM.Threads {
		if t.State == vm.Dead {
			continue
		}
		var topBlocking *vm.Frame
		for i := len(t.Frames) - 1; i >= 0; i-- {
			f := t.Frames[i]
			switch classify(f, cat1, updatedOld, p.Opts.OSROpt) {
			case frameBlocking:
				// A changed method with a user-provided yield-point map
				// can be rewritten on stack (the UpStare extension)
				// instead of blocking — if the frame sits at a mapped pc.
				// The map is keyed by bytecode pc, which is what a
				// base-compiled frame's pc is: fusion is in place.
				if am, ok := active[f.CM.Method]; ok && f.CM.Level == rt.Base {
					if _, mapped := am.PC[f.PC]; mapped {
						amCopy := am
						osrJobs = append(osrJobs, osrJob{frame: f, active: &amCopy})
						continue
					}
				}
				if topBlocking == nil {
					topBlocking = f
				}
			case frameOSR:
				osrJobs = append(osrJobs, osrJob{frame: f})
			}
		}
		if topBlocking != nil {
			blocked = true
			if blockingFrame == nil {
				blockingFrame = topBlocking
			}
			if !topBlocking.Barrier {
				topBlocking.Barrier = true
				p.barrier[topBlocking] = true
				p.res.Stats.BarriersInstalled++
				if e.VM.Rec.Enabled() {
					e.VM.Rec.Emit(obs.KBarrierInstalled, obs.LaneThread(t.ID),
						int64(p.res.Stats.Attempts), topBlocking.CM.Method.FullName())
				}
				e.VM.ReleaseUpdateWaiters() // let other threads run on
			} else if t.State == vm.UpdateWait {
				// The thread parked when an inner frame's barrier fired, but
				// this outer restricted frame — barrier already installed in
				// an earlier round — still pins its stack. Parked it can
				// never return through that frame, so no attempt could ever
				// succeed: release it alone (threads parked with clean
				// stacks stay put) and let the outer barrier fire.
				e.VM.ReleaseThread(t)
			}
		}
	}
	if e.VM.Rec.Enabled() { // names are built for a recorder only
		blockingMethod := ""
		if blockingFrame != nil {
			blockingMethod = blockingFrame.CM.Method.FullName()
		}
		e.VM.Rec.Emit(obs.KSafePointAttempt, obs.LaneEngine, int64(p.res.Stats.Attempts), blockingMethod)
	}

	if blocked {
		timedOut := time.Since(p.start) > p.Opts.Timeout ||
			(p.Opts.MaxAttempts > 0 && p.res.Stats.Attempts >= p.Opts.MaxAttempts)
		if timedOut {
			e.finish(p, Aborted, fmt.Errorf("core: no DSU safe point within %v (%d attempts)",
				p.Opts.Timeout, p.res.Stats.Attempts))
			return true
		}
		return false // keep running; barriers or the next attempt will retry
	}

	// DSU safe point reached.
	p.res.Stats.Immediate = p.res.Stats.Attempts == 1 && p.res.Stats.BarriersInstalled == 0
	p.res.Stats.SafePointDelay = time.Since(p.start)
	if e.VM.Rec.Enabled() {
		e.VM.Rec.Emit(obs.KSafePointReached, obs.LaneEngine, int64(p.res.Stats.Attempts),
			p.res.Stats.SafePointDelay.String())
	}
	if e.Gate != nil {
		p.gateDuring = e.VM.Metrics.TakeSnapshot()
	}
	if err := e.apply(p, osrJobs, cat1); err != nil {
		e.finish(p, Failed, err)
	} else {
		e.finish(p, Applied, nil)
	}
	return true
}

// finish seals the request, clears barriers, and releases parked threads.
func (e *Engine) finish(p *Pending, outcome Outcome, err error) {
	for f := range p.barrier {
		f.Barrier = false
	}
	res := p.res
	res.Outcome, res.Err = outcome, err
	p.done = true
	e.Updates = append(e.Updates, res)
	e.emitTerminal(res)
	// The seal publishes the pause and the outcome; a residue that outlives
	// the pause publishes what moved since when it retires.
	e.VM.Metrics.Publish(res, nil)
	if r := e.residue; r != nil && e.VM.Metrics != nil { // this update's: handle forced any earlier one
		sealed := res.Stats
		r.sealed = &sealed
	}
	e.judge(p, res)
	e.VM.ReleaseUpdateWaiters()
	e.VM.SetUpdatePending(false)
	if e.AfterUpdate != nil {
		e.AfterUpdate(res)
	}
}

// judge closes the gate window and evaluates the health gates over it,
// stamping the verdict on the result and applying the engine's FAIL
// policy. Runs after the seal's publish so the closing snapshot contains
// this update's own pause/outcome series.
func (e *Engine) judge(p *Pending, res *Result) {
	if e.Gate == nil {
		return
	}
	e.VM.PublishMetrics()
	after := e.VM.Metrics.TakeSnapshot()
	tag := ""
	if p.Spec != nil {
		tag = p.Spec.OldTag
	}
	v := e.Gate.Evaluate(tag, res.Outcome.String(), p.gateBefore, p.gateDuring, after)
	res.Verdict = v
	if v != nil && !v.Pass && e.GatePolicy == GateHalt {
		e.halt = v
	}
}

// emitTerminal records the request's terminal flight-recorder event.
func (e *Engine) emitTerminal(res *Result) {
	if !e.VM.Rec.Enabled() {
		return
	}
	var k obs.Kind
	switch res.Outcome {
	case Applied:
		k = obs.KUpdateApplied
	case Aborted:
		k = obs.KUpdateAborted
	default:
		k = obs.KUpdateFailed
	}
	msg := ""
	if res.Err != nil {
		msg = res.Err.Error()
	}
	e.VM.Rec.Emit(k, obs.LaneEngine, int64(res.Stats.Attempts), msg)
}
