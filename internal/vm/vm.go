// Package vm implements the govolve virtual machine: a green-thread
// scheduler with yield points, an interpreter of JIT-resolved code, native
// methods (console, time, simulated network), the string runtime, GC
// triggering, return barriers, and on-stack replacement. The DSU engine
// (internal/core) drives it through the exported hooks.
package vm

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/gc"
	"govolve/internal/heap"
	"govolve/internal/jit"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/verifier"
)

// Options configures VM construction.
type Options struct {
	// HeapWords is the size of one semispace in words (default 1<<20).
	HeapWords int
	// Quantum is the number of instructions a thread runs before the
	// scheduler switches at the next yield point (default 400).
	Quantum int
	// Concurrent opts the DSU engine into concurrent discovery feeding a
	// deferred evacuation. Updated-instance discovery runs as a snapshot-at-
	// the-beginning trace between the update request and the safe point; the
	// pause stops at flip preparation (re-scan of the SATB deletion log and
	// roots, flip, eager evacuation of the updated-class instances only, root
	// remap) and the remaining live set is evacuated after the world resumes
	// — by one background relocator and by the mutator through a
	// self-healing load barrier on the heap's reference read paths.
	// From-space stays live until the drain completes; collections and
	// follow-up updates force-complete it first. Composed with LazyTransform
	// there is no mark at all: pair creation defers into the drain as well.
	// Ordinary allocation-triggered collections are unaffected, and false
	// preserves the fused stop-the-world collection exactly; the disabled
	// state costs one nil check on the heap access paths.
	Concurrent bool
	// Out receives System.print output (default os.Stdout).
	Out io.Writer
	// OptThreshold overrides the adaptive recompilation threshold.
	OptThreshold int
	// LazyTransform defers object transformation out of the DSU pause: the
	// pause copies objects and leaves each updated-class instance pending,
	// and a read barrier on the interpreter's receiver and field fast paths
	// transforms an object on first touch (the paper's §5 on-first-use
	// hybrid, opt-in). The barrier's disabled state costs one nil-check, like
	// the SATB barrier.
	LazyTransform bool
	// Recorder, if non-nil, is the flight recorder every VM layer emits
	// typed events into (scheduler, DSU engine, collector). A nil
	// recorder is fully disabled: emission sites pay one nil check.
	Recorder *obs.Recorder
	// Metrics, if non-nil, receives counter/gauge/histogram updates; see
	// VM.PublishMetrics and the engine's pause histograms.
	Metrics *obs.Registry
	// Profiler, if non-nil, arms the version-attributed sampling profiler:
	// the scheduler samples the just-run thread's interpreter stack at
	// every slice boundary, weighted by the instructions the slice
	// executed. Nil is the disabled state: one nil-check per slice.
	Profiler *obs.Profiler
}

// Mode names one setting of the two options that shape the DSU pause.
type Mode struct {
	Name       string
	Lazy       bool // Options.LazyTransform
	Concurrent bool // Options.Concurrent
}

// Modes is every engine mode — the one table each harness that runs "all
// modes" ranges over (stream.Modes, the storm configurations,
// TestMovesMatchInterpreter, pausecmp, jvolve-bench): stop-the-world; lazy
// (transformation out of the pause); concurrent (discovery before the pause,
// the bulk copy after it); and both, the smallest possible DSU window — pair
// creation itself rides the drain.
func Modes() []Mode {
	return []Mode{
		{Name: "serial"},
		{Name: "lazy", Lazy: true},
		{Name: "concurrent", Concurrent: true},
		{Name: "concurrent+lazy", Concurrent: true, Lazy: true},
	}
}

// Deterministic reports whether a seeded run in this mode is a pure function
// of its seed. Serial and lazy runs are (the lazy drain schedule is
// driver-controlled). Concurrent ones are not: the SATB trace completes on
// wall-clock/goroutine time, so the number of scheduler slices the mutator
// runs before the safe point — and with it attempt counts and step totals —
// varies run to run; and the relocator races the mutator for the remaining
// live set, so how much each update's drain retires before the next step's
// forced completion — and with it the pair adoption split composed with lazy
// — is goroutine-schedule-dependent. The *oracle* invariants hold at every
// step regardless.
func (m Mode) Deterministic() bool { return !m.Concurrent }

// VM is one virtual machine instance.
type VM struct {
	Reg  *rt.Registry
	Heap *heap.Heap
	GC   *gc.Collector
	JIT  *jit.Compiler
	Net  *NetSim
	Out  io.Writer

	// Threads is every thread the scheduler knows about (the GC root set
	// and the DSU engine's safe-point scan walk it). Scheduling itself
	// never scans it: runnable threads live in runq (a FIFO ring) and
	// threads parked on a wake predicate live in blocked, so picking the
	// next thread is O(blocked)+O(1) instead of O(all threads ever
	// created).
	Threads []*Thread
	nextTID int

	// runq is the runnable ring: a FIFO with a head cursor, compacted in
	// place so steady-state scheduling allocates nothing.
	runq     []*Thread
	runqHead int

	// blocked holds threads parked on WakeWhen; only these are polled
	// between slices.
	blocked []*Thread

	// deadPending counts finished threads not yet reaped from Threads.
	deadPending int

	// spareThreads are reaped Thread records that newThread hands out again
	// (DESIGN.md §7.3): in no scheduler list and in no table.
	spareThreads []*Thread

	// DeadErrors is a bounded log of threads that died with a runtime
	// error and were reaped. Before reaping, an errored thread is still
	// in Threads with its Err set (so drivers and tests can inspect it);
	// reaping moves the error here instead of retaining the whole thread
	// — error-dead threads no longer inflate every GC root scan forever.
	DeadErrors []DeadError

	// Quantum is instructions per scheduling slice.
	Quantum int

	// yieldFlag asks running code to stop at the next yield point; the
	// DSU engine sets it through RequestStop.
	yieldFlag bool

	// UpdateHandler is installed by the DSU engine; the scheduler calls
	// it between slices while updatePending. It returns true when the
	// update attempt is finished (applied or aborted).
	UpdateHandler func() bool
	updatePending bool

	// Handles are pinned references (GC roots) used by natives and
	// drivers across allocations.
	Handles []rt.Value

	// natives holds the native bindings by "Class.name(sig)ret"; calls reach
	// them through the per-method cache (rt.Method.Native), not this map.
	natives map[string]*nativeBinding

	// Clock is the simulated millisecond clock, advanced by execution.
	Clock int64

	// TotalSteps counts all executed instructions.
	TotalSteps int64

	// icHits/icMisses count inline-cache dispatch outcomes at cached call
	// sites. Plain fields on the interpreter's own goroutine; PublishMetrics
	// exports them with the delta discipline.
	icHits   int64
	icMisses int64

	// stats holds the cheap steady-state counters exposed via Stats().
	stats statCounters

	// Trace, when set, receives scheduler/DSU diagnostics as text lines.
	// The same lines are routed into Rec (as obs.KTrace events) when a
	// flight recorder is attached, so the legacy writer and the recorder
	// stay consistent.
	Trace io.Writer

	// Rec is the attached flight recorder (nil = recording disabled; every
	// emission site is a single nil/flag check with zero allocations).
	Rec *obs.Recorder

	// Metrics is the attached metrics registry (nil = disabled). The VM
	// itself only writes it from PublishMetrics — never on the hot path;
	// the DSU engine records its pause histograms here.
	Metrics *obs.Registry

	// Prof is the attached sampling profiler (nil = sampling disabled; the
	// scheduler pays a single nil-check per slice). profScratch is the
	// reused frame-key buffer and profSeen the keys whose display names
	// have been registered — both written only by the scheduler goroutine.
	Prof        *obs.Profiler
	profScratch []uint64
	profSeen    map[uint64]bool

	// created anchors the govolve_vm_uptime_seconds gauge.
	created time.Time

	// published remembers the last snapshot PublishMetrics exported, so
	// monotonic VM counters map onto monotonic registry counters.
	published       Stats
	publishedCopied int64
	// publishedJIT* are the delta anchors for the compiler-activity and
	// inline-cache counters, same discipline as published.
	publishedJITBase int64
	publishedJITOpt  int64
	// publishedEvDropped / publishedProf* are the delta anchors for the
	// recorder-loss and profiler counters, same discipline as published.
	publishedEvDropped   uint64
	publishedProfTotal   int64
	publishedProfDropped int64

	// Exited is set by System.exit; ExitCode carries its argument.
	Exited   bool
	ExitCode int

	// GCDisabled blocks allocation-triggered collections while the DSU
	// transformer phase holds raw heap addresses in its update log.
	GCDisabled bool

	// FatalHeap is set when a collection fails (gc.ErrToSpaceExhausted):
	// the semispace flip already happened and the roots are partially
	// forwarded, so the heap is unusable. Every subsequent allocation
	// short-circuits with this error instead of re-collecting a broken
	// heap; threads die with it and the OOM is flagged in DeadErrors.
	FatalHeap error

	// LazyTransform and Concurrent are the mode switches (see Options); the
	// DSU engine reads them to pick eager or lazy transformation and the
	// stop-the-world or the concurrent collection at apply time.
	LazyTransform bool
	Concurrent    bool

	// Residue is installed by the DSU engine from the moment an update's
	// collection succeeds until everything that collection left behind — the
	// pair log, the relocation's from-space hold, the renamed old class
	// versions — has been retired. Nil is the disabled state: the
	// interpreter's access fast paths, the scheduler and CollectGarbage each
	// pay one nil-check.
	Residue *DSUResidue

	// Bootstrap class caches.
	strCls      *rt.Class
	strCharsOff int
	objectCls   *rt.Class
	strScratch  []byte // goBytes' scratch: a String's UTF-8 bytes

	// syncThreads are RunSynchronous's resident threads by nesting depth (a
	// transformer forcing a neighbour); syncDepth of them are running, and in
	// Threads. An idle one is not, so it is no root.
	syncThreads []*syncThread
	syncDepth   int

	// frames4/8/16 are what is left of newFrame's current chunk of each shape.
	frames4  []record[[4]rt.Value]
	frames8  []record[[8]rt.Value]
	frames16 []record[[16]rt.Value]

	// OnFrame, if set, sees every record newFrame builds: the hook of the tests
	// that hold the operand-stack bound to a run (vmtest.WatchStacks).
	OnFrame func(*Frame)
}

// DSUResidue is the one hook the DSU engine installs on the VM (VM.Residue).
// The vm package cannot import the engine, so the things the VM needs
// from an update's post-collection residue are spelled as functions; the
// engine sets them all.
type DSUResidue struct {
	// OnTouch arms the lazy read barrier: the program may run while shells
	// are still pending (heap.Pending — the pair word holds an old copy), so
	// the interpreter's receiver and field fast paths test the pair word and
	// call Transform on a hit. The engine arms it only once transforming on
	// touch is what it wants, never while its class transformers run. False
	// (eager transformation, possibly with a relocation still draining) keeps
	// the fast paths at this one flag test.
	OnTouch bool
	// Transform runs the object transformer of one updated-class instance if
	// it has not run yet: the read barrier's slow path and the
	// Jvolve.forceTransform native. An error kills the calling thread.
	Transform func(rt.Addr) error
	// Tick is the scheduler's between-slices poll; the engine retires a
	// concurrent relocation here the moment its drain runs from-space dry.
	Tick func()
	// Force completes and retires the whole residue on the mutator
	// goroutine. It returns the first error recorded; the caller reads
	// VM.FatalHeap to tell a failed relocation drain from transformer data
	// loss.
	Force func() error
	// Pairs lists every pair the update created so far, transformed or not: the oracle's view.
	Pairs func() []gc.Pair
}

// ObjectClass returns the bootstrap root class.
func (v *VM) ObjectClass() *rt.Class { return v.objectCls }

// ErrDeadlock is returned by Run when no thread can make progress.
var ErrDeadlock = errors.New("vm: all threads blocked (deadlock)")

// New constructs a VM with bootstrap classes loaded.
func New(opts Options) (*VM, error) {
	if opts.HeapWords <= 0 {
		opts.HeapWords = 1 << 20
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 400
	}
	if opts.Out == nil {
		opts.Out = os.Stdout
	}
	reg := rt.NewRegistry()
	h := heap.New(opts.HeapWords)
	v := &VM{
		Reg:           reg,
		Heap:          h,
		GC:            gc.New(h, reg),
		JIT:           jit.New(reg),
		Net:           NewNetSim(),
		Out:           opts.Out,
		Quantum:       opts.Quantum,
		natives:       make(map[string]*nativeBinding),
		LazyTransform: opts.LazyTransform,
		Concurrent:    opts.Concurrent,
		created:       time.Now(),
	}
	if opts.OptThreshold > 0 {
		v.JIT.OptThreshold = opts.OptThreshold
	}
	if opts.Recorder != nil || opts.Metrics != nil {
		v.AttachObs(opts.Recorder, opts.Metrics)
	}
	if opts.Profiler != nil {
		v.AttachProfiler(opts.Profiler)
	}
	if err := v.bootstrap(); err != nil {
		return nil, err
	}
	return v, nil
}

// AttachObs attaches a flight recorder and/or metrics registry to the VM
// and propagates the recorder to the collector (whose tracer and relocator
// emit from their own goroutines). Either argument may be nil; attaching nil
// detaches that plane.
func (v *VM) AttachObs(rec *obs.Recorder, metrics *obs.Registry) {
	v.Rec = rec
	v.Metrics = metrics
	v.GC.Rec = rec
}

// LoadProgram verifies and loads an application program, running class
// initializers. Bootstrap classes are already present and resolvable.
func (v *VM) LoadProgram(p *classfile.Program) error {
	ver := verifier.New(regEnv{v.Reg, p}, verifier.Strict)
	for _, def := range p.Sorted() {
		if err := def.Validate(); err != nil {
			return err
		}
	}
	order, err := rt.SuperFirst(p)
	if err != nil {
		return err
	}
	// Verification happens per class against the merged environment
	// (loaded classes + the program being loaded), mirroring classloading
	// with bytecode verification.
	for _, def := range order {
		if err := ver.VerifyClass(def); err != nil {
			return err
		}
	}
	// Two-phase: load (and link) every class first, then run class
	// initializers in load order, so a <clinit> may reference any class
	// of the program regardless of load order.
	loaded := make([]*rt.Class, 0, len(order))
	for _, def := range order {
		cls, err := v.Reg.Load(def)
		if err != nil {
			return err
		}
		loaded = append(loaded, cls)
	}
	for _, cls := range loaded {
		if err := v.RunClinit(cls); err != nil {
			return err
		}
	}
	return nil
}

// regEnv resolves classes from the registry first, then the program being
// loaded (so forward references within a program verify).
type regEnv struct {
	reg *rt.Registry
	p   *classfile.Program
}

func (e regEnv) LookupClass(name string) *classfile.Class {
	if def := e.reg.LookupDef(name); def != nil {
		return def
	}
	return e.p.Classes[name]
}

// RunClinit executes a class's <clinit> synchronously, if present.
func (v *VM) RunClinit(cls *rt.Class) error {
	m := cls.Method("<clinit>", "()V")
	if m == nil || m.Class != cls {
		return nil
	}
	return v.RunSynchronous("<clinit:"+cls.Name+">", m, nil)
}

// RunSynchronous executes a method to completion on a resident thread registered
// with the VM for the duration (so its frames are GC roots), with the yield flag
// suspended — the DSU engine uses it for class initializers and transformer
// functions, which run while application threads are stopped. The thread, its
// root frame, locals and operand stack outlive the run; only its id is fresh.
func (v *VM) RunSynchronous(name string, m *rt.Method, args []rt.Value) error {
	if v.syncDepth == len(v.syncThreads) {
		v.syncThreads = append(v.syncThreads, new(syncThread))
	}
	st := v.syncThreads[v.syncDepth]
	t, f := &st.Thread, &st.root
	v.initThread(t, name)
	cm, err := v.resolveCompiled(m)
	if err != nil {
		return err
	}
	f.Locals = f.Locals[:cap(f.Locals)] // the root only grows: methods taking turns on it settle on one record
	v.reseat(f, cm.MaxLocals, cm.MaxStack)
	f.CM, f.PC, f.Barrier = cm, 0, false
	f.Locals, f.Stack = f.Locals[:cm.MaxLocals], f.Stack[:0]
	clear(f.Locals)
	copy(f.Locals, args)
	t.push(f)

	v.Threads = append(v.Threads, t)
	v.syncDepth++
	saved := v.yieldFlag
	v.yieldFlag = false
	for t.State == Runnable {
		v.interpret(t, 1<<30)
	}
	v.yieldFlag = saved
	v.syncDepth--
	n := len(v.Threads) - 1
	for v.Threads[n] != t { // runs nest: the first probe hits unless the guest spawned threads
		n--
	}
	v.Threads = append(v.Threads[:n], v.Threads[n+1:]...)
	err = t.Err
	if t.State == Blocked {
		err = fmt.Errorf("vm: synchronous thread %s blocked:\n%s", name, t.Backtrace())
	}
	clear(t.Frames)
	f.CM = nil
	return err
}

// syncThread is one resident synchronous thread with its root frame.
type syncThread struct {
	Thread
	root Frame
}

// Spawn creates a thread running a static method with the given arguments.
func (v *VM) Spawn(name string, m *rt.Method, args []rt.Value) (*Thread, error) {
	t := v.newThread(name)
	if err := v.callOn(t, m, args); err != nil {
		t.State = Dead
		return nil, err
	}
	v.addThread(t)
	return t, nil
}

// addThread registers a thread with the scheduler: the global table (GC
// roots, DSU scans) plus the runnable ring.
func (v *VM) addThread(t *Thread) {
	v.Threads = append(v.Threads, t)
	if t.State == Runnable {
		v.enqueue(t)
	}
}

// SpawnMain starts className.main()V.
func (v *VM) SpawnMain(className string) (*Thread, error) {
	cls := v.Reg.LookupClass(className)
	if cls == nil {
		return nil, fmt.Errorf("vm: no class %s", className)
	}
	m := cls.Method("main", "()V")
	if m == nil {
		return nil, fmt.Errorf("vm: no method %s.main()V", className)
	}
	return v.Spawn("main", m, nil)
}

// newThread makes a runnable thread on a reaped record if there is one.
func (v *VM) newThread(name string) *Thread {
	var t *Thread
	if k := len(v.spareThreads); k > 0 {
		t, v.spareThreads = v.spareThreads[k-1], v.spareThreads[:k-1]
	} else {
		t = new(Thread)
	}
	v.initThread(t, name)
	return t
}

// initThread makes *t a fresh runnable thread in place, on the stack backing it
// had — for a new thread its inline one. In place because Frames points into
// the record: a Thread copied by value would share the original's stack.
func (v *VM) initThread(t *Thread, name string) {
	v.nextTID++
	v.stats.ThreadsSpawned++
	frames := t.Frames[:0]
	if frames == nil {
		frames = t.inline[:0]
	}
	*t = Thread{ID: v.nextTID, Name: name, State: Runnable, Frames: frames}
}

// callOn pushes an initial activation of m with args onto t.
func (v *VM) callOn(t *Thread, m *rt.Method, args []rt.Value) error {
	cm, err := v.resolveCompiled(m)
	if err != nil {
		return err
	}
	f := v.newFrame(cm, cm.MaxLocals, cm.MaxStack)
	copy(f.Locals, args)
	t.push(f)
	return nil
}

// resolveCompiled returns current valid code for m, compiling or
// recompiling as the adaptive system dictates.
func (v *VM) resolveCompiled(m *rt.Method) (*rt.CompiledMethod, error) {
	m.Invocations++
	needs := m.Compiled == nil || m.Compiled.Invalid
	wantOpt := !m.Pinned && m.Invocations >= v.JIT.OptThreshold
	if !needs && wantOpt && m.Compiled.Level == rt.Base && m.Invocations == v.JIT.OptThreshold {
		needs = true
	}
	if !needs {
		return m.Compiled, nil
	}
	level := rt.Base
	if wantOpt {
		level = rt.Opt
	}
	cm, err := v.JIT.Compile(m, level)
	if err != nil {
		return nil, err
	}
	m.Compiled = cm
	return cm, nil
}

// RequestStop sets the yield flag so all threads stop at their next yield
// point; the DSU engine calls it when an update arrives.
func (v *VM) RequestStop() { v.yieldFlag = true }

// ClearStop clears the yield flag.
func (v *VM) ClearStop() { v.yieldFlag = false }

// SetUpdatePending arms the scheduler to call UpdateHandler between slices.
func (v *VM) SetUpdatePending(p bool) {
	v.updatePending = p
	if p {
		v.yieldFlag = true
	} else {
		v.yieldFlag = false
	}
}

// UpdatePending reports whether an update attempt is armed.
func (v *VM) UpdatePending() bool { return v.updatePending }

// ReleaseThread returns one UpdateWait thread to the run queue. The DSU
// engine uses it for a thread that parked on an inner frame's return
// barrier while an outer restricted frame — with its barrier already
// installed — still pins the stack: keeping it parked would deadlock the
// safe-point search, since the outer barrier can only fire if the thread
// runs on. No-op for any other state.
func (v *VM) ReleaseThread(t *Thread) {
	if t.State == UpdateWait {
		t.State = Runnable
		v.enqueue(t)
	}
}

// ReleaseUpdateWaiters returns UpdateWait threads to the run queue after an
// update completes or aborts. UpdateWait threads sit in neither scheduler
// list (they parked mid-slice on a return barrier), so this is the one walk
// of the full table left on an update boundary — never the steady path.
func (v *VM) ReleaseUpdateWaiters() {
	for _, t := range v.Threads {
		if t.State == UpdateWait {
			t.State = Runnable
			v.enqueue(t)
		}
	}
}

// Step runs up to maxSlices scheduling slices, returning the number of
// slices in which a thread actually ran. Between slices, if an update is
// pending, the DSU handler runs — at that moment every thread is stopped at
// a VM safe point. Step returns 0 when no thread is runnable.
func (v *VM) Step(maxSlices int) int {
	ran := 0
	for s := 0; s < maxSlices; s++ {
		if v.Residue != nil {
			v.Residue.Tick()
		}
		if v.updatePending && v.UpdateHandler != nil {
			if v.UpdateHandler() {
				v.SetUpdatePending(false)
			}
		}
		t := v.pickThread()
		if t == nil {
			return ran
		}
		v.runSlice(t)
		ran++
	}
	return ran
}

// Run drives the scheduler until no thread is alive. It returns
// ErrDeadlock if live threads remain but none can run.
func (v *VM) Run() error {
	for {
		if v.Residue != nil {
			v.Residue.Tick()
		}
		if v.updatePending && v.UpdateHandler != nil {
			if v.UpdateHandler() {
				v.SetUpdatePending(false)
			}
		}
		t := v.pickThread()
		if t == nil {
			if v.liveThreads() == 0 {
				return nil
			}
			if v.updatePending {
				// Blocked threads plus a pending update: let the
				// handler keep trying (it has its own timeout).
				continue
			}
			return ErrDeadlock
		}
		v.runSlice(t)
	}
}

// reapThreshold is how many finished threads may accumulate in Threads
// before a reap pass compacts the table. Below the threshold, dead threads
// (including errored ones) remain inspectable in Threads.
const reapThreshold = 32

// maxDeadErrors bounds the DeadErrors log; beyond it the oldest entries are
// dropped, so a crash-looping workload cannot grow memory without bound.
const maxDeadErrors = 128

// DeadError is one reaped thread's terminal runtime error.
type DeadError struct {
	ThreadID int
	Name     string
	Err      error
	// OOM is set when the thread died of the fatal collection failure
	// (gc.ErrToSpaceExhausted): the heap is unusable and the death is a
	// machine-level out-of-memory, not a bug in the thread's own code.
	OOM bool
}

// ReapDeadThreads immediately reaps finished threads (errors move to
// DeadErrors) instead of waiting for reapThreshold to accumulate. Drivers
// use it to observe terminal thread errors promptly — e.g. the typed OOM
// flag after a fatal collection failure.
func (v *VM) ReapDeadThreads() { v.reapDead() }

// reapDead drops finished threads from the thread table. Long-running
// servers spawn a handler thread per connection; without reaping, the table
// (a GC root set and the DSU engine's scan list) grows forever. Errored
// threads are reaped too — their errors move to the bounded DeadErrors log
// instead of pinning the whole thread (stack, frames, locals) permanently.
//
// A reaped record goes back to newThread unless a scheduler list still holds
// it: a thread killed while queued or parked (System.exit) stays in the ring
// or in blocked until the scheduler drops it, and a record reused before that
// would be scheduled twice. Usually neither list holds a dead thread.
func (v *VM) reapDead() {
	filedDead := slices.ContainsFunc(v.runq[v.runqHead:], isDead) || slices.ContainsFunc(v.blocked, isDead)
	live := v.Threads[:0]
	for _, t := range v.Threads {
		if t.State != Dead {
			live = append(live, t)
			continue
		}
		if t.Err != nil {
			v.DeadErrors = append(v.DeadErrors, DeadError{
				ThreadID: t.ID,
				Name:     t.Name,
				Err:      t.Err,
				OOM:      errors.Is(t.Err, gc.ErrToSpaceExhausted),
			})
			if len(v.DeadErrors) > maxDeadErrors {
				v.DeadErrors = v.DeadErrors[len(v.DeadErrors)-maxDeadErrors:]
			}
		}
		v.stats.ThreadsReaped++
		if !filedDead || !slices.Contains(v.runq[v.runqHead:], t) && !slices.Contains(v.blocked, t) {
			clear(t.Frames) // a killed thread's frames would pin their chunks
			v.spareThreads = append(v.spareThreads, t)
		}
	}
	// Clear the tail so reaped threads are collectable.
	for i := len(live); i < len(v.Threads); i++ {
		v.Threads[i] = nil
	}
	v.Threads = live
	v.deadPending = 0
}

func isDead(t *Thread) bool { return t.State == Dead }

// enqueue appends a thread to the runnable ring, compacting the ring in
// place when the head cursor has drifted — steady-state scheduling of a
// stable thread set allocates nothing.
func (v *VM) enqueue(t *Thread) {
	if v.runqHead > 0 {
		if v.runqHead == len(v.runq) {
			v.runq = v.runq[:0]
			v.runqHead = 0
		} else if v.runqHead > 32 && v.runqHead*2 >= len(v.runq) {
			n := copy(v.runq, v.runq[v.runqHead:])
			v.runq = v.runq[:n]
			v.runqHead = 0
		}
	}
	v.runq = append(v.runq, t)
}

// popRunnable dequeues the next runnable thread from the ring, skipping
// entries whose state changed while queued (e.g. killed by System.exit).
func (v *VM) popRunnable() *Thread {
	for v.runqHead < len(v.runq) {
		t := v.runq[v.runqHead]
		v.runq[v.runqHead] = nil
		v.runqHead++
		if t.State == Runnable {
			return t
		}
		if t.State == Dead {
			v.deadPending++
		}
	}
	v.runq = v.runq[:0]
	v.runqHead = 0
	return nil
}

// pickThread wakes blocked threads whose condition holds and returns the
// next runnable thread, or nil. Cost is O(blocked)+O(1): only threads
// actually parked on a wake predicate are polled, and the runnable ring
// pops in FIFO order — dead or long-retired threads are never rescanned.
func (v *VM) pickThread() *Thread {
	v.stats.SchedulerScans++
	if len(v.blocked) > 0 {
		keep := v.blocked[:0]
		for _, t := range v.blocked {
			if t.State == Blocked && t.WakeWhen != nil {
				v.stats.WakeChecks++
				if t.WakeWhen(v, t) {
					t.State = Runnable
					t.WakeWhen = nil
					v.enqueue(t)
				} else {
					keep = append(keep, t)
				}
				continue
			}
			// State changed while parked (System.exit, DSU release):
			// drop from the blocked list; a Runnable thread re-enters
			// through the ring.
			switch t.State {
			case Runnable:
				v.enqueue(t)
			case Dead:
				v.deadPending++
			}
		}
		for i := len(keep); i < len(v.blocked); i++ {
			v.blocked[i] = nil
		}
		v.blocked = keep
	}
	return v.popRunnable()
}

// CheckScheduler audits the scheduler lists against the thread table and the
// spare records — the invariants thread recycling rests on: a thread sits in
// the runnable ring and in blocked at most once all told, one that is not dead
// is in Threads (the root set), and a spare record is dead, held once, and in
// neither list nor the table. Used by the storm harness's whole-VM checker.
func (v *VM) CheckScheduler() error {
	inTable := make(map[*Thread]bool, len(v.Threads))
	for _, t := range v.Threads {
		inTable[t] = true
	}
	filed := make(map[*Thread]string)
	for _, l := range []struct {
		name    string
		threads []*Thread
	}{{"the runnable ring", v.runq[v.runqHead:]}, {"blocked", v.blocked}} {
		for _, t := range l.threads {
			if prev, ok := filed[t]; ok {
				return fmt.Errorf("vm: thread %d (%s) is filed in %s and in %s", t.ID, t.Name, prev, l.name)
			}
			filed[t] = l.name
			if t.State != Dead && !inTable[t] {
				return fmt.Errorf("vm: %s thread %d (%s) in %s is not in the thread table", t.State, t.ID, t.Name, l.name)
			}
		}
	}
	spare := make(map[*Thread]bool, len(v.spareThreads))
	for _, t := range v.spareThreads {
		_, isFiled := filed[t]
		if t.State != Dead || inTable[t] || isFiled || spare[t] {
			return fmt.Errorf("vm: spare thread record (was %d, %s) is %s, in the table %v, filed %v, spare twice %v",
				t.ID, t.Name, t.State, inTable[t], isFiled, spare[t])
		}
		spare[t] = true
	}
	return nil
}

func (v *VM) liveThreads() int {
	live := 0
	for _, t := range v.Threads {
		if t.State != Dead {
			live++
		}
	}
	return live
}

// runSlice executes one scheduling slice of t and re-files the thread in
// the scheduler list matching its post-slice state.
func (v *VM) runSlice(t *Thread) {
	v.stats.Slices++
	if v.Prof == nil {
		// Disabled-path discipline: profiling off costs exactly this one
		// nil-check per slice (gated by TestProfDisabled* / obs-verdict-gate).
		v.interpret(t, v.Quantum)
	} else {
		before := v.TotalSteps
		v.interpret(t, v.Quantum)
		v.profileSlice(t, v.TotalSteps-before)
	}
	switch t.State {
	case Runnable:
		v.enqueue(t)
	case Blocked:
		v.blocked = append(v.blocked, t)
	case Dead:
		v.deadPending++
		if v.deadPending > reapThreshold {
			v.reapDead()
		}
	}
	// UpdateWait threads sit in neither list; ReleaseUpdateWaiters
	// re-enqueues them when the update resolves.
}

// --- GC integration -------------------------------------------------------

// ForEachRoot enumerates every root: JTOC reference slots, interned
// strings, pinned handles, and all frame locals and operand stacks.
func (v *VM) ForEachRoot(fn func(*rt.Value)) {
	for i := range v.Reg.JTOC {
		if v.Reg.JTOC[i].IsRef {
			fn(&v.Reg.JTOC[i])
		}
	}
	for i := range v.Reg.InternRoots {
		if v.Reg.InternRoots[i].IsRef {
			fn(&v.Reg.InternRoots[i])
		}
	}
	for i := range v.Handles {
		if v.Handles[i].IsRef {
			fn(&v.Handles[i])
		}
	}
	for _, t := range v.Threads {
		for _, f := range t.Frames {
			for i := range f.Locals {
				if f.Locals[i].IsRef {
					fn(&f.Locals[i])
				}
			}
			for i := range f.Stack {
				if f.Stack[i].IsRef {
					fn(&f.Stack[i])
				}
			}
		}
	}
}

// DrainActive reports whether a DSU residue is installed: the window between
// an update's collection and the retirement of everything it left behind (a
// lazy-transform drain with pending objects outstanding, a concurrent
// relocation holding from-space live behind the load barrier, or both).
// During this window the renamed old class versions, UpdatedTo links,
// transformer class and the old copies in from-space's tail legitimately
// outlive the pause.
func (v *VM) DrainActive() bool { return v.Residue != nil }

// CollectGarbage runs a non-DSU collection. A collection error is fatal:
// the heap is left unusable (see gc.ErrToSpaceExhausted) and the VM is
// marked accordingly; an unusable heap is never collected again.
func (v *VM) CollectGarbage() (gc.Result, error) {
	if v.FatalHeap != nil {
		return gc.Result{}, v.FatalHeap
	}
	if v.Residue != nil {
		// A flip cannot run with the relocation load barrier armed and
		// from-space held, and it would invalidate the pair log's raw
		// addresses and reclaim the old copies: force-complete the residue
		// first. Individual transformer failures during the forced drain are
		// data loss on the affected objects (they keep default field values,
		// the documented lazy failure mode) and the collection proceeds on
		// the consistent, fully drained heap; a failed relocation drain is a
		// failed collection — the residue has marked the heap unusable.
		_ = v.Residue.Force()
		if v.FatalHeap != nil {
			return gc.Result{}, v.FatalHeap
		}
	}
	res, err := v.GC.Collect(v, false)
	if err != nil {
		v.MarkHeapUnusable(err)
	}
	return res, err
}

// MarkHeapUnusable records a fatal collection failure. It is idempotent;
// the first cause wins.
func (v *VM) MarkHeapUnusable(err error) {
	if v.FatalHeap == nil {
		v.FatalHeap = fmt.Errorf("vm: heap unusable after failed collection: %w", err)
	}
}

// allocObject allocates an instance, collecting once on failure.
func (v *VM) allocObject(c *rt.Class) (rt.Addr, error) {
	v.stats.AllocObjects++
	if a, ok := v.Heap.AllocObject(c); ok {
		return a, nil
	}
	if err := v.gcForAlloc(); err != nil {
		return 0, err
	}
	if a, ok := v.Heap.AllocObject(c); ok {
		return a, nil
	}
	return 0, fmt.Errorf("vm: out of memory allocating %s (%d words)", c.Name, c.Size)
}

// allocArray allocates an array, collecting once on failure.
func (v *VM) allocArray(elemRef bool, n int) (rt.Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("vm: negative array size %d", n)
	}
	v.stats.AllocArrays++
	if a, ok := v.Heap.AllocArray(elemRef, n); ok {
		return a, nil
	}
	if err := v.gcForAlloc(); err != nil {
		return 0, err
	}
	if a, ok := v.Heap.AllocArray(elemRef, n); ok {
		return a, nil
	}
	return 0, fmt.Errorf("vm: out of memory allocating array of %d", n)
}

// allocChars is allocArray for a char array that its caller fills whole
// before the next allocation: heap.AllocChars skips the clear.
func (v *VM) allocChars(n int) (rt.Addr, error) {
	v.stats.AllocArrays++
	if a, ok := v.Heap.AllocChars(n); ok {
		return a, nil
	}
	if err := v.gcForAlloc(); err != nil {
		return 0, err
	}
	if a, ok := v.Heap.AllocChars(n); ok {
		return a, nil
	}
	return 0, fmt.Errorf("vm: out of memory allocating array of %d", n)
}

// gcForAlloc collects to satisfy an allocation. While the DSU engine's
// transformer phase runs, collection is disabled — the update log holds raw
// addresses a collection would invalidate — so allocation failure there is
// an immediate OOM (the paper sidesteps the same issue with a generous
// heap: "five times the minimum required size, such that the only
// collections are those DSU triggers").
func (v *VM) gcForAlloc() error {
	if v.FatalHeap != nil {
		return v.FatalHeap
	}
	if v.GCDisabled {
		return fmt.Errorf("vm: allocation failed while GC is disabled (transformer phase)")
	}
	_, err := v.CollectGarbage()
	return err
}

// PushHandle pins a reference across allocations; PopHandle releases it.
func (v *VM) PushHandle(a rt.Addr) *rt.Value {
	v.Handles = append(v.Handles, rt.RefVal(a))
	return &v.Handles[len(v.Handles)-1]
}

// PopHandle releases the most recent n handles.
func (v *VM) PopHandle(n int) {
	v.Handles = v.Handles[:len(v.Handles)-n]
}

// OSRReplace swaps a frame's code for freshly compiled base code of the
// same method (same bytecode, possibly a new class version's metadata).
//
// For a base-compiled frame the pc map is the identity — the precise
// analog of Jikes RVM OSR on base-compiled methods: fusion is in place and
// a pure function of the bytecode, so a resting pc (never a pad) names the
// same instruction boundary in both compiles. For an opt-compiled frame
// (extension; the paper leaves it as future work) the compiled code's PCMap
// translates the pc, provided the frame is parked outside any inlined
// region; frames only rest at yield points and call boundaries, where opt
// and base operand stacks agree.
func (v *VM) OSRReplace(f *Frame, cm *rt.CompiledMethod) error {
	if cm.Level != rt.Base {
		return fmt.Errorf("vm: OSR target must be base-compiled (%s)", f.Method().FullName())
	}
	if f.CM.Method.Def != cm.Method.Def && f.CM.Method.ID() != cm.Method.ID() {
		return fmt.Errorf("vm: OSR across different methods")
	}
	newPC := f.PC
	switch f.CM.Level {
	case rt.Base:
		if len(cm.Code) != len(f.CM.Code) {
			return fmt.Errorf("vm: OSR pc map not identity for %s", f.Method().FullName())
		}
	case rt.Opt:
		if !OSRMappable(f) {
			return fmt.Errorf("vm: opt frame of %s not at a mappable pc (inlined region?)", f.Method().FullName())
		}
		newPC = f.CM.PCMap[f.PC]
		if newPC >= len(cm.Code) {
			return fmt.Errorf("vm: opt pc map out of range for %s", f.Method().FullName())
		}
		// Base code is fused on its own: never resume on a pad (§15.4).
		if cm.Code[newPC].Op == bytecode.FPAD {
			return fmt.Errorf("vm: opt frame of %s maps to pc %d, inside a superinstruction", f.Method().FullName(), newPC)
		}
	}
	v.reseat(f, cm.MaxLocals, cm.MaxStack)
	f.CM = cm
	f.PC = newPC
	return nil
}

// OSRRewrite forcibly moves a frame onto new base code at the given pc,
// with an optional locals remap (identity when nil). This implements the
// UpStare-style active-method update of the paper's §3.5: the method's
// bytecode *changed*, and the user-provided yield-point map asserts that
// the old frame state is meaningful at newPC in the new body. A newPC the
// compiler folded into the superinstruction before it is refused: resuming
// on the pad would skip the constituent that used to live there.
func (v *VM) OSRRewrite(f *Frame, cm *rt.CompiledMethod, newPC int, locals map[int]int) error {
	if cm.Level != rt.Base {
		return fmt.Errorf("vm: active-method rewrite target must be base-compiled")
	}
	if newPC < 0 || newPC >= len(cm.Code) {
		return fmt.Errorf("vm: active-method rewrite pc %d out of range (len %d)", newPC, len(cm.Code))
	}
	if cm.Code[newPC].Op == bytecode.FPAD {
		return fmt.Errorf("vm: active-method rewrite pc %d is inside a superinstruction, not an instruction boundary", newPC)
	}
	size := max(cm.MaxLocals, len(f.Locals))
	for oldSlot, newSlot := range locals {
		if oldSlot < 0 || oldSlot >= len(f.Locals) || newSlot < 0 || newSlot >= size {
			return fmt.Errorf("vm: active-method locals map %d->%d out of range", oldSlot, newSlot)
		}
	}
	v.reseat(f, cm.MaxLocals, cm.MaxStack)
	if locals != nil {
		old := slices.Clone(f.Locals) // the map may permute slots
		clear(f.Locals)
		for oldSlot, newSlot := range locals {
			f.Locals[newSlot] = old[oldSlot]
		}
	}
	f.CM = cm
	f.PC = newPC
	return nil
}

// OSRMappable reports whether an opt-compiled frame's pc can be mapped back
// to bytecode: it is outside every inlined region.
func OSRMappable(f *Frame) bool {
	cm := f.CM
	return cm.Level == rt.Opt && f.PC >= 0 && f.PC < len(cm.PCMap) && cm.PCMap[f.PC] >= 0
}

// statCounters are the raw steady-state counters, incremented on the cheap
// side of every scheduler/allocator path (never per instruction — the
// per-instruction counter is TotalSteps, which the simulated clock already
// pays for).
type statCounters struct {
	Slices         int64
	SchedulerScans int64
	WakeChecks     int64
	ThreadsSpawned int64
	ThreadsReaped  int64
	AllocObjects   int64
	AllocArrays    int64
}

// Stats is a snapshot of the VM's steady-state counters — the paper's
// Figure 5 claim ("stock ≈ DSU-capable ≈ updated") as numbers rather than
// an assertion. Instructions is total executed instructions; Slices is
// scheduling slices run; SchedulerScans is pickThread invocations;
// WakeChecks is blocked-thread wake-predicate evaluations; AllocObjects/
// AllocArrays count heap allocations triggered by executed code;
// RunnableQueue/BlockedThreads/LiveThreads/TableThreads describe the
// scheduler lists at snapshot time.
type Stats struct {
	Instructions   int64
	Slices         int64
	SchedulerScans int64
	WakeChecks     int64
	ThreadsSpawned int64
	ThreadsReaped  int64
	AllocObjects   int64
	AllocArrays    int64
	GCCollections  int64

	// TracePromotions reads 0: base code is fused when it is compiled, so no
	// frame is ever promoted. The field stays because the bench of record's
	// pinned API surface (benchmark/README.md) names it; a [benchmark] PR
	// drops it together with vm.trace_promotions. ICHits/ICMisses count
	// inline-cache dispatch outcomes at virtual call sites.
	TracePromotions int64
	ICHits          int64
	ICMisses        int64

	RunnableQueue  int
	BlockedThreads int
	LiveThreads    int
	TableThreads   int
	DeadErrorCount int
}

// Stats snapshots the steady-state counter block.
func (v *VM) Stats() Stats {
	return Stats{
		Instructions:   v.TotalSteps,
		Slices:         v.stats.Slices,
		SchedulerScans: v.stats.SchedulerScans,
		WakeChecks:     v.stats.WakeChecks,
		ThreadsSpawned: v.stats.ThreadsSpawned,
		ThreadsReaped:  v.stats.ThreadsReaped,
		AllocObjects:   v.stats.AllocObjects,
		AllocArrays:    v.stats.AllocArrays,
		GCCollections:  int64(v.GC.Collections),
		ICHits:         v.icHits,
		ICMisses:       v.icMisses,
		RunnableQueue:  len(v.runq) - v.runqHead,
		BlockedThreads: len(v.blocked),
		LiveThreads:    v.liveThreads(),
		TableThreads:   len(v.Threads),
		DeadErrorCount: len(v.DeadErrors),
	}
}

// Delta subtracts a previous snapshot's monotonic counters from s, leaving
// the point-in-time gauges (queue depths, live threads) as observed in s.
// Use it to isolate the work done inside a measurement window.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.Instructions -= prev.Instructions
	d.Slices -= prev.Slices
	d.SchedulerScans -= prev.SchedulerScans
	d.WakeChecks -= prev.WakeChecks
	d.ThreadsSpawned -= prev.ThreadsSpawned
	d.ThreadsReaped -= prev.ThreadsReaped
	d.AllocObjects -= prev.AllocObjects
	d.AllocArrays -= prev.AllocArrays
	d.GCCollections -= prev.GCCollections
	d.TracePromotions -= prev.TracePromotions
	d.ICHits -= prev.ICHits
	d.ICMisses -= prev.ICMisses
	return d
}

// tracef emits one scheduler/DSU diagnostic line. The line goes to the
// legacy Trace writer (when set) and, consistently, into the flight
// recorder as an obs.KTrace event (when attached and enabled). With
// neither destination armed the cost is two nil checks and no formatting.
func (v *VM) tracef(format string, args ...any) {
	w := v.Trace
	rec := v.Rec.Enabled()
	if w == nil && !rec {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if w != nil {
		fmt.Fprintln(w, msg)
	}
	if rec {
		v.Rec.Emit(obs.KTrace, obs.LaneEngine, 0, msg)
	}
}

// PublishMetrics exports the VM's steady-state counters and gauges into
// the attached metrics registry: monotonic VM counters become monotonic
// registry counters (only the delta since the previous publish is added),
// scheduler-list depths become gauges. It is snapshot-based — nothing on
// the interpreter or scheduler hot path ever touches the registry.
func (v *VM) PublishMetrics() {
	if v.Metrics == nil {
		return
	}
	s := v.Stats()
	d := s.Delta(v.published)
	v.published = s
	m := v.Metrics
	m.Counter(obs.MInstructions).Add(d.Instructions)
	m.Counter(obs.MSlices).Add(d.Slices)
	m.Counter(obs.MHeapAllocObjects).Add(d.AllocObjects)
	m.Counter(obs.MHeapAllocArrays).Add(d.AllocArrays)
	m.Counter(obs.MGCCollections).Add(d.GCCollections)
	m.Counter(obs.MObjectsCopied).Add(int64(v.GC.CopiedObjects) - v.publishedCopied)
	v.publishedCopied = int64(v.GC.CopiedObjects)
	// JIT/IC activity: per-tier compile counters, IC hit/miss counters, and
	// the hit-rate gauge — all delta-published, never written on the dispatch
	// path.
	m.Counter(obs.MJITCompilesBase).Add(int64(v.JIT.BaseCompiles) - v.publishedJITBase)
	m.Counter(obs.MJITCompilesOpt).Add(int64(v.JIT.OptCompiles) - v.publishedJITOpt)
	v.publishedJITBase = int64(v.JIT.BaseCompiles)
	v.publishedJITOpt = int64(v.JIT.OptCompiles)
	m.Counter(obs.MJITICHits).Add(d.ICHits)
	m.Counter(obs.MJITICMisses).Add(d.ICMisses)
	if total := v.icHits + v.icMisses; total > 0 {
		m.Gauge(obs.MJITICHitRate).Set(float64(v.icHits) / float64(total))
	}
	m.Gauge(obs.MThreadsLive).Set(float64(s.LiveThreads))
	m.Gauge(obs.MThreadsBlocked).Set(float64(s.BlockedThreads))
	m.Gauge(obs.MRunnableQueue).Set(float64(s.RunnableQueue))
	m.Gauge(obs.MVMUptime).Set(time.Since(v.created).Seconds())
	if v.Rec != nil {
		// Flight-recorder ring overwrite loss, delta-published. A Reset()
		// rewinds the recorder's totals; resync instead of going negative.
		dropped := v.Rec.Dropped()
		if dropped >= v.publishedEvDropped {
			m.Counter(obs.MObsEventsDropped).Add(int64(dropped - v.publishedEvDropped))
		}
		v.publishedEvDropped = dropped
	}
	if v.Prof != nil {
		tot, drop := v.Prof.TotalSamples(), v.Prof.DroppedSamples()
		if tot >= v.publishedProfTotal {
			m.Counter(obs.MProfSamples).Add(tot - v.publishedProfTotal)
		}
		if drop >= v.publishedProfDropped {
			m.Counter(obs.MProfSamplesDropped).Add(drop - v.publishedProfDropped)
		}
		v.publishedProfTotal, v.publishedProfDropped = tot, drop
	}
}
