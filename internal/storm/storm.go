package storm

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// Config tunes one storm run. Everything observable is a deterministic
// function of Seed, so a failure reproduces by re-running with the seed
// printed in the error message.
type Config struct {
	Seed      int64
	Classes   int // initial generated classes (default 6)
	Updates   int // applied updates to drive through the pipeline (default 40)
	Mutations int // max mutations composed per update (default 3)
	Specimens int // tracked live instances per generated class (default 3)

	HeapWords   int // semi-space words (default 1<<16)
	MaxAttempts int // safe-point attempts before abort (default 400)
	OSROpt      bool
	// Concurrent moves the DSU copy and pair creation out of each update's
	// pause, and implies Lazy (vm.Options.Concurrent): the world resumes with
	// from-space still live behind the self-healing load barrier, and the
	// scheduler drains it a quantum between slices. AfterUpdate's CheckVM
	// then runs with the drain in flight (the walk heals as it reads), the
	// shadow oracle reads ride the same barrier, and the drain finishes on
	// its own during the following era. The drain consumes no extra rng or
	// Steps, so a run must produce a Report equal to the same seed's eager
	// run.
	Concurrent bool
	// Plain runs the reference spelling of base code: the compiler
	// stops after 1:1 resolution (jit.Compiler.Plain), so no superinstruction
	// and no inline cache ever runs, and opt recompilation is out of reach.
	// Fused handlers replicate unfused step accounting and yield-point
	// placement exactly, so such a run must produce a Report byte-identical
	// to the same seed's default-compiler run with OptThreshold out of reach
	// too — the tier-equivalence check that proves superinstructions and ICs
	// are observationally invisible under a live update storm. (Opt is held
	// out on both sides: inlining removes method-entry yield points, which
	// legitimately shifts slice boundaries and thus the rng trajectory.)
	Plain bool
	// OptThreshold overrides the VM's opt-recompilation invocation count
	// (0 keeps the VM default of 50). The stale-IC storm config sets this
	// low so the snap probe methods — each a hot monomorphic virtual call
	// site on a class the updates keep replacing — reach the IC-carrying
	// opt tier within a couple of checks, putting inline caches directly
	// in the oracle's line of fire.
	OptThreshold int
	// Lazy runs every update with lazy per-object transformation: objects
	// leave the pause tagged and transform on first touch behind the read
	// barrier. AfterUpdate's CheckVM then runs mid-drain (exercising the
	// drain-aware gauges), the probe pass fires the barrier through real
	// bytecode, and the harness force-drains the residue before the raw-heap
	// oracle reads. The drive sequence consumes rng and Steps identically to
	// eager mode, so a lazy run must produce a Report equal to the same
	// seed's eager run — the lazy/eager equivalence check.
	Lazy bool

	// InjectTransformerBug (test-only) overrides the first default object
	// transformer of every update with an empty body, simulating a broken
	// transformer; the shadow oracle must catch it.
	InjectTransformerBug bool
	// InjectStalePairWord (test-only) leaves a pointer in one specimen's pair
	// word (heap/bits.go) after every applied update, simulating a residue
	// teardown that forgot a pair; CheckVM's heap walk must catch it.
	InjectStalePairWord bool
	// BeforeRequest (test-only) sees every spec the run prepares, with the
	// VM still on the old version, just before the update is requested.
	BeforeRequest func(*vm.VM, *upt.Spec)

	// EventTail is how many flight-recorder events a failure report embeds
	// alongside the reproducing seed (default 40; negative disables the
	// recorder entirely). The recorder rides along for the whole run, so the
	// tail shows the DSU activity — safe-point attempts, barriers, phase
	// spans, transformer events — leading up to the violation.
	EventTail int

	// GateSpecs overrides the per-update health gates the engine evaluates
	// over metric snapshots bracketing every update (nil means
	// obs.DefaultGateSpecs); GatePolicy is the engine's FAIL reaction
	// (GateObserve by default). Gating is always armed — bootVM creates a
	// private registry when none is attached — so every storm update
	// produces a Verdict, and failure reports carry the last one.
	GateSpecs  []obs.GateSpec
	GatePolicy core.GatePolicy

	// Metrics, if set, attaches the registry to the VM so the engine, the
	// gates and the obs plane publish into it (a private registry is used
	// when nil — see GateSpecs).
	Metrics *obs.Registry

	Log io.Writer // optional progress log
}

func (c Config) withDefaults() Config {
	if c.Classes <= 0 {
		c.Classes = 6
	}
	if c.Updates <= 0 {
		c.Updates = 40
	}
	if c.Mutations <= 0 {
		c.Mutations = 3
	}
	if c.Specimens <= 0 {
		c.Specimens = 3
	}
	if c.HeapWords <= 0 {
		c.HeapWords = 1 << 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 400
	}
	if c.EventTail == 0 {
		c.EventTail = 40
	}
	c.Lazy = c.Lazy || c.Concurrent // as vm.New has it
	return c
}

// Report summarizes one storm run.
type Report struct {
	Seed     int64
	Applied  int // updates that committed
	Aborted  int // updates that timed out at the safe-point search
	Rejected int // candidate diffs UPT legally refused (hierarchy permutations)
	Checks   int // full invariant sweeps that ran
	Probes   int // bytecode probe cross-checks executed
	Specs    int // specimens tracked at exit
	Steps    int64
}

// specimen is one Go-tracked heap object: the shadow of its fields is the
// transformer oracle. The handle index pins it as a GC root and stays
// valid across collections (the GC forwards handles in place).
type specimen struct {
	class   string
	handle  int
	deleted bool             // class was deleted; shadow frozen
	ints    map[string]int64 // instance int fields by (globally unique) name
	refs    map[string]int   // instance ref fields: specimen handle index or -1
}

// classStatics shadows one generated class's static fields.
type classStatics struct {
	class string
	ints  map[string]int64
	refs  map[string]int
}

// intArray / refArray shadow driver-allocated arrays (arrays are never
// transformed, so their contents must survive every update verbatim).
type intArray struct {
	handle int
	elems  []int64
}
type refArray struct {
	handle int
	elems  []int // specimen handle index or -1
}

type runner struct {
	cfg Config
	rng *rand.Rand
	v   *vm.VM
	eng *core.Engine
	rep *Report

	model *model
	prog  *classfile.Program

	specs   []*specimen
	statics []*classStatics
	intArrs []*intArray
	refArrs []*refArray
	conns   []int64

	updateIdx int
	hookErr   error

	rec *obs.Recorder // nil when Config.EventTail < 0
}

// Run executes one storm: boot the generated program, then alternate
// workload eras with updates until cfg.Updates have been applied, checking
// every invariant after each one. The returned error, if any, carries the
// reproducing seed.
func Run(cfg Config) (*Report, error) {
	r := newRunner(cfg)
	if err := r.boot(); err != nil {
		return r.rep, err
	}
	return r.drive()
}

func newRunner(cfg Config) *runner {
	return &runner{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		rep: &Report{Seed: cfg.Seed},
	}
}

// drive runs eras and updates on a booted runner until the configured number
// of updates has applied.
func (r *runner) drive() (*Report, error) {
	cfg := r.cfg
	// Bounded total attempts: aborted/rejected updates don't count toward
	// the target but must not loop forever.
	for tries := 0; r.rep.Applied < cfg.Updates; tries++ {
		if tries >= 3*cfg.Updates+20 {
			return r.rep, r.failf("only %d/%d updates applied after %d attempts (%d aborted, %d rejected)",
				r.rep.Applied, cfg.Updates, tries, r.rep.Aborted, r.rep.Rejected)
		}
		if err := r.era(); err != nil {
			return r.rep, err
		}
		if err := r.update(); err != nil {
			return r.rep, err
		}
	}
	r.rep.Specs = len(r.specs)
	return r.rep, nil
}

func (r *runner) failf(format string, args ...any) error {
	msg := fmt.Sprintf("storm: seed=%d update=%d: %s", r.cfg.Seed, r.updateIdx, fmt.Sprintf(format, args...))
	if r.eng != nil && r.eng.Gate != nil {
		if v := r.eng.Gate.Last(); v != nil {
			msg += "\nlast gate " + v.String()
		}
	}
	if tail := r.rec.Last(r.cfg.EventTail); len(tail) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%s\nflight recorder (last %d of %d events):\n", msg, len(tail), r.rec.Total())
		obs.WriteEvents(&b, tail)
		return errors.New(strings.TrimRight(b.String(), "\n"))
	}
	return errors.New(msg)
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

// --- boot -------------------------------------------------------------------

func (r *runner) boot() error {
	r.model = newModel(r.rng, r.cfg.Classes)
	prog, err := r.model.program()
	if err != nil {
		return r.failf("initial program build: %v", err)
	}
	r.prog = prog
	return r.bootVM(r.cfg.Metrics)
}

// bootVM stands up the VM, engine, checker hook and workload for whatever
// model/program pair the runner already holds — the shared half of boot,
// also entered by the chain Driver with an externally generated Version.
func (r *runner) bootVM(metrics *obs.Registry) error {
	opts := vm.Options{
		HeapWords:     r.cfg.HeapWords,
		Concurrent:    r.cfg.Concurrent,
		LazyTransform: r.cfg.Lazy,
		OptThreshold:  r.cfg.OptThreshold,
		Out:           io.Discard,
	}
	if r.cfg.Plain {
		opts.OptThreshold = 1 << 30
	}
	v, err := vm.New(opts)
	if err != nil {
		return r.failf("vm: %v", err)
	}
	v.JIT.Plain = r.cfg.Plain
	r.v = v
	if r.cfg.EventTail > 0 {
		r.rec = obs.NewRecorder(obs.DefaultCapacity)
	}
	if metrics == nil {
		// Gate evaluation needs a registry to snapshot; a private one keeps
		// every storm/stream update judged even when no caller scrapes it.
		metrics = obs.NewRegistry()
	}
	v.AttachObs(r.rec, metrics)
	r.eng = core.NewEngine(v)
	r.eng.AttachGates(obs.NewGateEngine(r.cfg.GateSpecs, 0, metrics), r.cfg.GatePolicy)
	// The checker hook: run the structural sweep the instant each update
	// resolves, before any mutator step can mask a violation.
	r.eng.AfterUpdate = func(res *core.Result) {
		if r.hookErr == nil {
			r.hookErr = CheckVM(r.v)
		}
	}

	if err := v.LoadProgram(r.prog); err != nil {
		return r.failf("load: %v", err)
	}
	if _, err := v.SpawnMain("StormMain"); err != nil {
		return r.failf("spawn: %v", err)
	}
	v.Step(64) // let main bind the port and spawn the workload threads

	r.syncStatics()
	if err := r.ensureSpecimens(); err != nil {
		return err
	}
	// A couple of arrays for the array-contents invariant.
	for i := 0; i < 2; i++ {
		if err := r.allocArrays(); err != nil {
			return err
		}
	}
	return r.checkAll()
}

// addr reads a specimen-or-array handle's current address (handles are
// forwarded in place by the GC, so never cache the address).
func (r *runner) addrOf(handle int) rt.Addr { return r.v.Handles[handle].Ref() }

func (r *runner) allocObject(class string) (rt.Addr, error) {
	cls := r.v.Reg.LookupClass(class)
	if cls == nil {
		return 0, r.failf("allocObject: class %s not registered", class)
	}
	a, ok := r.v.Heap.AllocObject(cls)
	if !ok {
		if _, err := r.v.CollectGarbage(); err != nil {
			return 0, r.failf("gc for alloc: %v", err)
		}
		if a, ok = r.v.Heap.AllocObject(cls); !ok {
			return 0, r.failf("heap exhausted allocating %s", class)
		}
	}
	return a, nil
}

// ensureSpecimens tops up the live-specimen pool so every current model
// class has cfg.Specimens tracked instances (new classes get theirs the
// update after they appear).
func (r *runner) ensureSpecimens() error {
	count := make(map[string]int)
	for _, s := range r.specs {
		if !s.deleted {
			count[s.class]++
		}
	}
	for _, c := range r.model.classes {
		for count[c.name] < r.cfg.Specimens {
			a, err := r.allocObject(c.name)
			if err != nil {
				return err
			}
			r.v.PushHandle(a)
			s := &specimen{
				class:  c.name,
				handle: len(r.v.Handles) - 1,
				ints:   make(map[string]int64),
				refs:   make(map[string]int),
			}
			for _, f := range r.model.flatInstanceFields(c.name) {
				if f.desc == "I" {
					s.ints[f.name] = 0
				} else {
					s.refs[f.name] = -1
				}
			}
			r.specs = append(r.specs, s)
			count[c.name]++
		}
	}
	return nil
}

func (r *runner) allocArrays() error {
	n := 4 + r.rng.Intn(5)
	ia, ok := r.v.Heap.AllocArray(false, n)
	if !ok {
		return r.failf("heap exhausted allocating int array")
	}
	r.v.PushHandle(ia)
	r.intArrs = append(r.intArrs, &intArray{handle: len(r.v.Handles) - 1, elems: make([]int64, n)})

	m := 3 + r.rng.Intn(4)
	ra, ok := r.v.Heap.AllocArray(true, m)
	if !ok {
		return r.failf("heap exhausted allocating ref array")
	}
	r.v.PushHandle(ra)
	r.refArrs = append(r.refArrs, &refArray{handle: len(r.v.Handles) - 1, elems: makeNegOnes(m)})
	return nil
}

func makeNegOnes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// syncStatics rebuilds the statics shadow list for the current model,
// carrying existing shadow values for classes that survive.
func (r *runner) syncStatics() {
	old := make(map[string]*classStatics, len(r.statics))
	for _, cs := range r.statics {
		old[cs.class] = cs
	}
	var out []*classStatics
	for _, c := range r.model.classes {
		cs := old[c.name]
		if cs == nil {
			cs = &classStatics{class: c.name, ints: make(map[string]int64), refs: make(map[string]int)}
		}
		// Prune/add entries to match current static fields.
		ints := make(map[string]int64)
		refs := make(map[string]int)
		for _, f := range c.fields {
			if !f.static || f.name == hubOut {
				continue
			}
			if f.desc == "I" {
				ints[f.name] = cs.ints[f.name]
			} else {
				ref, ok := cs.refs[f.name]
				if !ok {
					ref = -1
				}
				refs[f.name] = ref
			}
		}
		cs.ints, cs.refs = ints, refs
		out = append(out, cs)
	}
	r.statics = out
}

// --- workload era -----------------------------------------------------------

// era runs the mutator between updates: scheduler slices, client traffic
// against the acceptor, random field/static/array pokes (mirrored into the
// shadow), and the occasional plain collection.
func (r *runner) era() error {
	rounds := 20 + r.rng.Intn(20)
	for i := 0; i < rounds; i++ {
		r.v.Step(1 + r.rng.Intn(6))
		r.rep.Steps++
		if r.rng.Intn(3) == 0 {
			r.traffic()
		}
		if r.rng.Intn(4) == 0 {
			r.poke()
		}
	}
	if r.rng.Intn(4) == 0 {
		if _, err := r.v.CollectGarbage(); err != nil {
			return r.failf("plain collection: %v", err)
		}
		return r.checkAll()
	}
	return nil
}

// traffic drives the NetSim client side: connect to the storm port, send a
// line, collect replies, close — keeping the connection table churning so
// the acceptor alternates between blocked-in-accept and serving.
func (r *runner) traffic() {
	net := r.v.Net
	if len(r.conns) < 3 && net.Listening(stormPort) && r.rng.Intn(2) == 0 {
		if id, err := net.Connect(stormPort); err == nil {
			_ = net.ClientSend(id, "ping")
			r.conns = append(r.conns, id)
		}
	}
	for i := 0; i < len(r.conns); {
		id := r.conns[i]
		_, got := net.ClientRecv(id)
		if got || net.ClientClosed(id) || r.rng.Intn(8) == 0 {
			net.ClientClose(id)
			r.conns = append(r.conns[:i], r.conns[i+1:]...)
			continue
		}
		i++
	}
}

// pickSpecimen returns a random live specimen assignable to desc, or nil.
func (r *runner) pickSpecimen(desc string) *specimen {
	var cands []*specimen
	for _, s := range r.specs {
		if desc == "LObject;" {
			cands = append(cands, s) // anything is an Object, even deleted
			continue
		}
		if !s.deleted && "L"+s.class+";" == desc {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[r.rng.Intn(len(cands))]
}

// poke writes random values into tracked specimen fields, statics, and
// arrays — through the real heap — and mirrors every write in the shadow.
func (r *runner) poke() {
	// Specimen instance fields.
	for n := 0; n < 2; n++ {
		if len(r.specs) == 0 {
			break
		}
		s := r.specs[r.rng.Intn(len(r.specs))]
		if s.deleted {
			continue
		}
		cls := r.v.Reg.LookupClass(s.class)
		if cls == nil {
			continue
		}
		for _, f := range r.model.flatInstanceFields(s.class) {
			if r.rng.Intn(3) != 0 {
				continue
			}
			slot := cls.Field(f.name)
			if slot == nil {
				continue
			}
			a := r.addrOf(s.handle)
			if f.desc == "I" {
				val := int64(r.rng.Intn(1 << 16))
				r.v.Heap.SetFieldValue(a, slot.Offset, rt.IntVal(val))
				s.ints[f.name] = val
			} else {
				target := r.pickSpecimen(f.desc)
				if target == nil || r.rng.Intn(5) == 0 {
					r.v.Heap.SetFieldValue(a, slot.Offset, rt.NullVal)
					s.refs[f.name] = -1
				} else {
					r.v.Heap.SetFieldValue(a, slot.Offset, rt.RefVal(r.addrOf(target.handle)))
					s.refs[f.name] = target.handle
				}
			}
		}
	}
	// Statics.
	if len(r.statics) > 0 {
		cs := r.statics[r.rng.Intn(len(r.statics))]
		cls := r.v.Reg.LookupClass(cs.class)
		c, _ := r.model.find(cs.class)
		if cls != nil && c != nil {
			for _, f := range c.fields {
				if !f.static || f.name == hubOut || r.rng.Intn(2) != 0 {
					continue
				}
				ss := cls.StaticField(f.name)
				if ss == nil {
					continue
				}
				if f.desc == "I" {
					val := int64(r.rng.Intn(1 << 16))
					r.v.Reg.JTOC[ss.Slot] = rt.IntVal(val)
					cs.ints[f.name] = val
				} else if target := r.pickSpecimen(f.desc); target != nil {
					r.v.Reg.JTOC[ss.Slot] = rt.RefVal(r.addrOf(target.handle))
					cs.refs[f.name] = target.handle
				} else {
					r.v.Reg.JTOC[ss.Slot] = rt.NullVal
					cs.refs[f.name] = -1
				}
			}
		}
	}
	// Arrays.
	if len(r.intArrs) > 0 {
		ar := r.intArrs[r.rng.Intn(len(r.intArrs))]
		i := r.rng.Intn(len(ar.elems))
		val := int64(r.rng.Intn(1 << 16))
		r.v.Heap.SetElem(r.addrOf(ar.handle), i, rt.IntVal(val))
		ar.elems[i] = val
	}
	if len(r.refArrs) > 0 {
		ar := r.refArrs[r.rng.Intn(len(r.refArrs))]
		i := r.rng.Intn(len(ar.elems))
		if target := r.pickSpecimen("LObject;"); target != nil && r.rng.Intn(4) != 0 {
			r.v.Heap.SetElem(r.addrOf(ar.handle), i, rt.RefVal(r.addrOf(target.handle)))
			ar.elems[i] = target.handle
		} else {
			r.v.Heap.SetElem(r.addrOf(ar.handle), i, rt.NullVal)
			ar.elems[i] = -1
		}
	}
}

// --- the update -------------------------------------------------------------

// update mutates the model, prepares the diff through UPT, drives it
// through the engine against the live VM, advances the shadow on success,
// and runs the full invariant sweep.
func (r *runner) update() error {
	var (
		spec    *upt.Spec
		next    *model
		newProg *classfile.Program
	)
	for attempt := 0; ; attempt++ {
		if attempt >= 25 {
			return r.failf("no acceptable mutation batch after %d attempts", attempt)
		}
		next = r.model.clone()
		descs := mutateBatch(next, r.model, r.rng, r.cfg.Mutations)
		if len(descs) == 0 {
			continue
		}
		np, err := next.program()
		if err != nil {
			return r.failf("candidate program build (%v): %v", descs, err)
		}
		sp, err := upt.Prepare(fmt.Sprintf("%d", r.updateIdx+1), r.prog, np)
		if err != nil {
			// A legality limit (e.g. a hierarchy permutation composed out
			// of individually-legal mutations): UPT refusing is correct
			// behaviour, not a storm failure. Try another batch.
			r.rep.Rejected++
			continue
		}
		if len(sp.Diffs) == 0 && len(sp.AddedClasses) == 0 && len(sp.DeletedClasses) == 0 {
			continue // mutations cancelled out; not a real update
		}
		shipHandWritten(sp)
		spec, newProg = sp, np
		r.logf("update %d: %v (class updates %v, bodies %d, +%d/-%d classes)",
			r.updateIdx+1, descs, sp.ClassUpdates, len(sp.MethodBodyUpdates),
			len(sp.AddedClasses), len(sp.DeletedClasses))
		break
	}

	if r.cfg.InjectTransformerBug {
		r.injectBug(spec)
	}
	if r.cfg.BeforeRequest != nil {
		r.cfg.BeforeRequest(r.v, spec)
	}

	pending, err := r.eng.RequestUpdate(spec, core.Options{
		Timeout:     time.Hour, // determinism: only MaxAttempts aborts
		MaxAttempts: r.cfg.MaxAttempts,
		OSROpt:      r.cfg.OSROpt,
	})
	if err != nil {
		return r.failf("update rejected by verifier: %v", err)
	}
	for i := 0; !pending.Done(); i++ {
		if i > 50_000_000 {
			return r.failf("update did not resolve")
		}
		r.v.Step(1)
		r.rep.Steps++
		if i%64 == 63 {
			r.traffic() // keep the acceptor waking up mid-update
		}
	}

	res := pending.Result()
	switch res.Outcome {
	case core.Applied:
		r.rep.Applied++
		r.updateIdx++
		r.shadowApply(spec, next)
		r.model = next
		r.prog = newProg
		r.syncStatics()
		if err := r.ensureSpecimens(); err != nil {
			return err
		}
		if r.cfg.InjectStalePairWord {
			a := r.addrOf(r.specs[0].handle)
			r.v.Heap.SetPairWord(a, uint64(a))
		}
	case core.Aborted:
		r.rep.Aborted++
	default:
		return r.failf("update failed mid-flight: %v", res.Err)
	}
	if r.hookErr != nil {
		err := r.failf("post-update hook: %v", r.hookErr)
		r.hookErr = nil
		return err
	}
	return r.checkAll()
}

// injectBug overrides the first object transformer that is still a pure
// field copy with an empty body — the deliberate fault the checker must catch
// (tests only).
func (r *runner) injectBug(spec *upt.Spec) {
	if name := injectEmptyTransformer(spec); name != "" {
		r.logf("update %d: injected empty transformer for %s", r.updateIdx+1, name)
	}
}

// shadowApply advances the Go-side shadow across an applied update using
// exactly UPT's default-transformer rule: for every field of the new
// flattened layout, carry the old value when the renamed old flat
// definition has a field of the same name, same desc, same static-ness;
// otherwise default it (0 / null). This is the oracle the heap is checked
// against afterwards.
func (r *runner) shadowApply(spec *upt.Spec, next *model) {
	updated := make(map[string]bool, len(spec.ClassUpdates))
	for _, n := range spec.ClassUpdates {
		updated[n] = true
	}
	deleted := make(map[string]bool, len(spec.DeletedClasses))
	for _, n := range spec.DeletedClasses {
		deleted[n] = true
	}

	for _, s := range r.specs {
		if s.deleted {
			continue
		}
		if deleted[s.class] {
			s.deleted = true // lives on under the old, unregistered class
			continue
		}
		if !updated[s.class] {
			continue
		}
		flat := spec.OldFlatDefs[spec.RenamedName(s.class)]
		ints := make(map[string]int64)
		refs := make(map[string]int)
		for _, nf := range next.flatInstanceFields(s.class) {
			var of *classfile.Field
			if flat != nil {
				of = flat.Field(nf.name)
			}
			carried := of != nil && !of.Static && string(of.Desc) == nf.desc
			if nf.desc == "I" {
				if carried {
					ints[nf.name] = s.ints[nf.name]
				} else {
					ints[nf.name] = 0
				}
			} else {
				if carried {
					if old, ok := s.refs[nf.name]; ok {
						refs[nf.name] = old
					} else {
						refs[nf.name] = -1
					}
				} else {
					refs[nf.name] = -1
				}
			}
		}
		s.ints, s.refs = ints, refs
	}

	// Statics: same rule against the flat old defs; non-updated surviving
	// classes keep their slots and their shadow untouched.
	for _, cs := range r.statics {
		if !updated[cs.class] {
			continue
		}
		c, _ := next.find(cs.class)
		if c == nil {
			continue // deleted; syncStatics will drop it
		}
		flat := spec.OldFlatDefs[spec.RenamedName(cs.class)]
		ints := make(map[string]int64)
		refs := make(map[string]int)
		for _, f := range c.fields {
			if !f.static || f.name == hubOut {
				continue
			}
			var of *classfile.Field
			if flat != nil {
				of = flat.Field(f.name)
			}
			carried := of != nil && of.Static && string(of.Desc) == f.desc
			if f.desc == "I" {
				if carried {
					ints[f.name] = cs.ints[f.name]
				} else {
					ints[f.name] = 0
				}
			} else {
				if carried {
					if old, ok := cs.refs[f.name]; ok {
						refs[f.name] = old
					} else {
						refs[f.name] = -1
					}
				} else {
					refs[f.name] = -1
				}
			}
		}
		cs.ints, cs.refs = ints, refs
	}
}

// --- the invariant sweep ----------------------------------------------------

// checkAll is the full post-update check: the generic whole-VM sweep, the
// shadow oracle over every tracked specimen/static/array, and the bytecode
// probe cross-check (running probe()I through real dispatch against
// freshly compiled code and comparing with the shadow sum).
func (r *runner) checkAll() error {
	r.rep.Checks++
	if r.cfg.Lazy {
		// Lazy mode reorders the sweep so both halves of the machinery get
		// exercised every update: the probe pass first — its snap() bytecode
		// dereferences every specimen through real dispatch, firing the read
		// barrier per object — then a forced drain of whatever the probes
		// did not touch. Only then are the raw-heap oracle reads valid (they
		// bypass the interpreter, so an untransformed shell would read as
		// corruption). RunSynchronous probes consume no rng and no scheduler
		// steps, so the reorder keeps the run step-identical to eager mode.
		if err := r.checkProbes(); err != nil {
			return err
		}
		if err := r.eng.ForceDrain(); err != nil {
			return r.failf("lazy drain: %v", err)
		}
		if err := CheckVM(r.v); err != nil {
			return r.failf("invariant: %v", err)
		}
		if err := r.checkSpecimens(); err != nil {
			return err
		}
		if err := r.checkStatics(); err != nil {
			return err
		}
		return r.checkArrays()
	}
	if err := CheckVM(r.v); err != nil {
		return r.failf("invariant: %v", err)
	}
	if err := r.checkSpecimens(); err != nil {
		return err
	}
	if err := r.checkStatics(); err != nil {
		return err
	}
	if err := r.checkArrays(); err != nil {
		return err
	}
	return r.checkProbes()
}

func (r *runner) specimenClass(s *specimen) (*rt.Class, error) {
	a := r.addrOf(s.handle)
	cls := r.v.Reg.ClassByID(r.v.Heap.ClassID(a))
	if cls == nil {
		return nil, r.failf("specimen %s@%d: unknown class id %d", s.class, a, r.v.Heap.ClassID(a))
	}
	if cls.Name != s.class {
		return nil, r.failf("specimen handle %d: expected class %s, heap says %s", s.handle, s.class, cls.Name)
	}
	if cls.Renamed {
		return nil, r.failf("specimen %s@%d still types as renamed old version", s.class, a)
	}
	if !s.deleted && r.v.Reg.LookupClass(s.class) != cls {
		return nil, r.failf("specimen %s@%d uses stale metadata for a live class", s.class, a)
	}
	return cls, nil
}

// checkSpecimens is the transformer oracle: every tracked instance must
// hold exactly the shadow's field values — unchanged fields preserved,
// added/retyped fields defaulted — and ref fields must point at the
// current (forwarded) addresses of the shadow's target specimens.
func (r *runner) checkSpecimens() error {
	for _, s := range r.specs {
		cls, err := r.specimenClass(s)
		if err != nil {
			return err
		}
		a := r.addrOf(s.handle)
		for name, want := range s.ints {
			slot := cls.Field(name)
			if slot == nil {
				return r.failf("specimen %s@%d: shadow field %s missing from layout", s.class, a, name)
			}
			got := r.v.Heap.FieldValue(a, slot.Offset, false).Int()
			if got != want {
				return r.failf("transformer oracle: %s@%d.%s = %d, shadow says %d", s.class, a, name, got, want)
			}
		}
		for name, wantHandle := range s.refs {
			slot := cls.Field(name)
			if slot == nil {
				return r.failf("specimen %s@%d: shadow ref field %s missing from layout", s.class, a, name)
			}
			got := r.v.Heap.FieldValue(a, slot.Offset, true).Ref()
			want := rt.Null
			if wantHandle >= 0 {
				want = r.addrOf(wantHandle)
			}
			if got != want {
				return r.failf("transformer oracle: %s@%d.%s = @%d, shadow says @%d", s.class, a, name, got, want)
			}
		}
		// The layout must not carry shadow-unknown extras among the
		// tracked names (layout and shadow derive from the same model, so
		// a mismatch in count means the flattening diverged).
		if !s.deleted {
			flat := r.model.flatInstanceFields(s.class)
			if len(flat) != len(s.ints)+len(s.refs) {
				return r.failf("specimen %s: shadow tracks %d fields, model layout has %d",
					s.class, len(s.ints)+len(s.refs), len(flat))
			}
		}
	}
	return nil
}

func (r *runner) checkStatics() error {
	for _, cs := range r.statics {
		cls := r.v.Reg.LookupClass(cs.class)
		if cls == nil {
			return r.failf("statics shadow: class %s not registered", cs.class)
		}
		c, _ := r.model.find(cs.class)
		if c == nil {
			return r.failf("statics shadow: class %s missing from model", cs.class)
		}
		for _, f := range c.fields {
			if !f.static || f.name == hubOut {
				continue
			}
			ss := cls.StaticField(f.name)
			if ss == nil {
				return r.failf("statics shadow: %s.%s missing from class", cs.class, f.name)
			}
			got := r.v.Reg.JTOC[ss.Slot]
			if f.desc == "I" {
				if got.Int() != cs.ints[f.name] {
					return r.failf("class transformer oracle: %s.%s = %d, shadow says %d",
						cs.class, f.name, got.Int(), cs.ints[f.name])
				}
			} else {
				want := rt.Null
				if h := cs.refs[f.name]; h >= 0 {
					want = r.addrOf(h)
				}
				if got.Ref() != want {
					return r.failf("class transformer oracle: %s.%s = @%d, shadow says @%d",
						cs.class, f.name, got.Ref(), want)
				}
			}
		}
	}
	return nil
}

func (r *runner) checkArrays() error {
	for _, ar := range r.intArrs {
		a := r.addrOf(ar.handle)
		if n := r.v.Heap.ArrayLen(a); n != len(ar.elems) {
			return r.failf("int array @%d: length %d, shadow says %d", a, n, len(ar.elems))
		}
		for i, want := range ar.elems {
			if got := r.v.Heap.Elem(a, i).Int(); got != want {
				return r.failf("int array @%d[%d] = %d, shadow says %d", a, i, got, want)
			}
		}
	}
	for _, ar := range r.refArrs {
		a := r.addrOf(ar.handle)
		if n := r.v.Heap.ArrayLen(a); n != len(ar.elems) {
			return r.failf("ref array @%d: length %d, shadow says %d", a, n, len(ar.elems))
		}
		for i, h := range ar.elems {
			want := rt.Null
			if h >= 0 {
				want = r.addrOf(h)
			}
			if got := r.v.Heap.Elem(a, i).Ref(); got != want {
				return r.failf("ref array @%d[%d] = @%d, shadow says @%d", a, i, got, want)
			}
		}
	}
	return nil
}

// checkProbes runs each live specimen's probe()I through real bytecode —
// virtual dispatch, getfield against freshly compiled code — and compares
// with the shadow's flattened int-field sum. This is the stale-offset
// detector: a compiled method with baked-in old offsets, or a transformer
// that scrambled the layout, shows up as a probe mismatch.
func (r *runner) checkProbes() error {
	for _, s := range r.specs {
		if s.deleted {
			continue
		}
		cls := r.v.Reg.LookupClass(s.class)
		if cls == nil {
			return r.failf("probe: class %s not registered", s.class)
		}
		m := cls.Method("snap", classfile.Sig("(L"+s.class+";)V"))
		if m == nil {
			return r.failf("probe: %s has no snap method", s.class)
		}
		if err := r.v.RunSynchronous("storm-probe", m, []rt.Value{rt.RefVal(r.addrOf(s.handle))}); err != nil {
			return r.failf("probe of %s: %v", s.class, err)
		}
		hub := r.v.Reg.LookupClass(hubClass)
		out := hub.StaticField(hubOut)
		got := r.v.Reg.JTOC[out.Slot].Int()
		var want int64
		for _, v := range s.ints {
			want += v
		}
		if got != want {
			return r.failf("probe oracle: %s probe()I = %d, shadow sum = %d", s.class, got, want)
		}
		r.rep.Probes++
	}
	return nil
}
