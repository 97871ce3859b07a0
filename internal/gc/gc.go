// Package gc implements the semi-space copying collector and its DSU
// extension (JVOLVE paper §3.4). A normal collection copies reachable
// objects to to-space and forwards references. In DSU mode, when the
// collector first encounters an instance of an updated class it allocates
// *two* objects in to-space — a copy of the old object (old layout, old
// class ID) and an uninitialized shell of the new class — installs the
// forwarding pointer to the shell, and records the pair in the update log.
// After the collection the DSU engine runs object transformers over the log;
// dropping the log then makes the old copies unreachable, so the next
// collection reclaims them.
//
// When the class's transformer is a pure field copy (rt.Class.Moves) the
// collector performs it instead: one object, written in the new layout as it
// is copied, forwarded to and scanned like any other — no pair, no log entry
// (kernel.go: writeMoved).
package gc

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"govolve/internal/heap"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// ErrToSpaceExhausted is the typed fatal-OOM cause: a collection ran out of
// copy space (to-space, or the scratch region during a DSU copy) mid-flight.
// The semispace flip has already happened and an unknown subset of roots has
// been forwarded, so the heap is unusable afterwards — callers must treat it
// as fatal (the VM marks the heap dead and surfaces the error in DeadErrors)
// rather than retry.
var ErrToSpaceExhausted = errors.New("gc: copy space exhausted during collection")

// ErrPreFlip tags collection failures raised *before* the semispace flip:
// nothing has been copied, no forwarding pointer installed, no root
// rewritten — the heap is fully usable. CollectWithMark's rescan and
// live-list walk can fail this way (structural errors such as an unknown
// class ID). Callers detect it with errors.Is and fail the update cleanly
// instead of declaring the heap dead; post-flip failures stay fatal.
var ErrPreFlip = errors.New("heap intact, collection failed before flip")

// preFlipErr wraps err so errors.Is(err, ErrPreFlip) holds.
func preFlipErr(err error) error {
	return fmt.Errorf("%w: %w", ErrPreFlip, err)
}

// Roots enumerates the VM's root set: thread stacks, JTOC reference slots,
// intern-table entries, and native handles. The callback may rewrite each
// value in place (that is how forwarding reaches the roots).
type Roots interface {
	ForEachRoot(fn func(*rt.Value))
}

// RootsFunc adapts a function to Roots.
type RootsFunc func(fn func(*rt.Value))

// ForEachRoot implements Roots.
func (f RootsFunc) ForEachRoot(fn func(*rt.Value)) { f(fn) }

// Pair is one update-log entry: the to-space copy of the old object and the
// uninitialized new-class object.
type Pair struct {
	OldCopy rt.Addr
	New     rt.Addr
}

// Result reports one collection.
type Result struct {
	// Log is the update log (empty for non-DSU collections), in
	// first-encounter order. Each shell also caches its old copy's address
	// in its pair word (heap/bits.go), as in the paper (§3.4).
	Log []Pair

	CopiedObjects int
	CopiedWords   int
	// PairsLogged counts DSU pairs recorded in Log — objects the collection
	// *scheduled* for transformation. (It was once called Transformed, which
	// conflated it with the engine-side count of objects whose transformer
	// actually ran; that number lives in core.Stats.)
	PairsLogged int
	// ScratchWords counts old-copy words placed in the scratch region
	// (zero when the heap has none and old copies burn to-space instead).
	ScratchWords int
	// Moved counts instances of updated classes the collection wrote directly
	// in their new layout (rt.Class.Moves): transformed as they were copied,
	// so they are in CopiedObjects once and in neither Log nor PairsLogged.
	Moved    int
	Duration time.Duration

	// Workers is how many copy/scan workers ran (1 for the serial path).
	Workers int
	// WorkerWords is the words copied per worker (nil for the serial path)
	// — the load-balance evidence behind the gcpause experiment.
	WorkerWords []int
	// TLABWaste is the to-space/scratch words abandoned in TLAB tails by a
	// parallel collection (0 for the serial path).
	TLABWaste int
	// Steals counts work-stealing deque pops that took another worker's
	// grey object.
	Steals int64

	// Pause decomposition — uniform across every mode so pausecmp rows
	// compare like with like. The measured phases are disjoint slices of
	// Duration: PauseMark is in-pause instance discovery (the concurrent-
	// relocation pipeline's pre-flip trace; zero when discovery ran outside
	// the pause), PauseRescan is the SATB deletion-log drain + root re-scan
	// a concurrent-mark collection still does inside the pause, and
	// PauseCopy is the in-pause copy work — the whole fused trace+copy for
	// the STW collectors (PauseCopy = Duration there), the sweep+fixup for
	// CollectWithMark, and only the eager pair evacuation + root remap for
	// CollectReloc (whose bulk copy runs in the concurrent drain, reported
	// by RelocStats.Drain instead).
	PauseMark   time.Duration
	PauseRescan time.Duration
	PauseCopy   time.Duration

	// Concurrent-mark bookkeeping (zero unless MarkConcurrent). MarkOutside
	// is the concurrent trace's wall time — work that PR 5 moved *out* of
	// the pause; MarkSetup is the snapshot capture + barrier arm mini-stop.
	MarkConcurrent bool
	MarkOutside    time.Duration
	MarkSetup      time.Duration
	MarkedObjects  int // objects greyed by the concurrent trace (roots included)
	RescanMarked   int // objects the pause rescan additionally marked
	SATBDrained    int // deletion-log entries drained at the pause
	// MarkUpdatedInstances counts updated-class instances attributed by the
	// concurrent trace (root captures included). Instances the pause itself
	// discovers — rescan marks and the allocate-black walk — are not
	// attributed; PairsLogged is the authoritative copied-pair count.
	MarkUpdatedInstances int

	// Relocated marks a CollectReloc result: the world resumed with
	// from-space still live and a concurrent relocation drain in flight.
	// CopiedObjects/CopiedWords then cover only the pause's eager work; the
	// drain's share arrives later in RelocStats.
	Relocated bool
}

// Options tunes a collector.
type Options struct {
	// Workers selects the collection strategy. <=0 or 1 runs the exact
	// serial Cheney path (the default); N>1 runs the parallel copy/scan
	// collector with N workers; AutoWorkers picks runtime.GOMAXPROCS.
	Workers int
	// TLABWords overrides the per-worker allocation-buffer carve size for
	// parallel collections (default 4096, clamped so the worker buffers
	// cannot strand more than ~1/8 of a semispace).
	TLABWords int
	// ConcurrentMark opts the DSU engine into the snapshot-at-the-beginning
	// concurrent mark phase (mark.go): updated-instance discovery runs
	// overlapped with the mutator and the update pause shrinks to
	// rescan + copy + transform. The collector itself only consults it in
	// the engine-facing helpers; plain Collect calls are unaffected, so
	// ConcurrentMark=false preserves today's serial and parallel paths
	// exactly.
	ConcurrentMark bool
	// ConcurrentReloc opts the DSU engine into concurrent relocation
	// (reloc.go): the pause shrinks to discovery + eager pair evacuation +
	// root remap, the world resumes with from-space still live, and the
	// remaining live set is evacuated by background relocator workers plus
	// the mutator's self-healing load barrier. Plain Collect calls are
	// unaffected.
	ConcurrentReloc bool
}

// AutoWorkers selects one collection worker per available CPU.
const AutoWorkers = -1

// Collector is the collection machinery bound to one heap and registry.
type Collector struct {
	Heap *heap.Heap
	Reg  *rt.Registry
	Opts Options

	// Collections counts completed collections.
	Collections int
	// CopiedObjects accumulates objects copied across all collections —
	// the cumulative series behind the govolve_gc_copied_objects_total
	// metric (per-collection numbers live in Result).
	CopiedObjects int

	// Rec, when attached (vm.AttachObs), receives per-worker flight-
	// recorder events: one phase span per copy/scan worker plus a
	// copied-words and steal summary. Nil disables emission entirely.
	Rec *obs.Recorder

	// lastPairs, the previous DSU collection's pair count, sizes the next one's log.
	lastPairs int

	// mark is the in-flight concurrent marker (nil when none — the common
	// case; every STW entry point pays one nil check). pool keeps the mark
	// bitmap, SATB buffer, and worker deques alive across collections so
	// repeated updates allocate no per-cycle scratch.
	mark *Marker
	pool markPool
}

// New builds a serial collector.
func New(h *heap.Heap, reg *rt.Registry) *Collector {
	return &Collector{Heap: h, Reg: reg}
}

// NewWithOptions builds a collector with an explicit strategy.
func NewWithOptions(h *heap.Heap, reg *rt.Registry, opts Options) *Collector {
	return &Collector{Heap: h, Reg: reg, Opts: opts}
}

// EffectiveWorkers resolves Opts.Workers to the worker count a collection
// will actually use.
func (c *Collector) EffectiveWorkers() int {
	w := c.Opts.Workers
	if w == AutoWorkers {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Collect runs a full collection. With dsu set, instances of classes whose
// UpdatedTo field is non-nil are transformed as described in the package
// comment. A collection failure (ErrToSpaceExhausted) leaves the heap
// unusable — the flip already happened and roots are partially forwarded —
// and the VM treats it as fatal OOM (vm.MarkHeapUnusable).
//
// With Opts.Workers > 1 the parallel copy/scan collector runs instead; the
// serial path is a Cheney scan driven by the copy/scan kernel (kernel.go).
func (c *Collector) Collect(roots Roots, dsu bool) (*Result, error) {
	if c.mark != nil {
		// A concurrent mark is in flight but a collection must run now
		// (e.g. the mutator exhausted the heap mid-mark). The flip would
		// move memory under the tracers and invalidate every marked
		// address, so the snapshot is stale: join the workers and discard
		// it before touching anything. The engine observes the abort and
		// restarts the mark against the post-collection heap.
		c.AbortMark()
	}
	if w := c.EffectiveWorkers(); w > 1 {
		return c.collectParallel(roots, dsu, w)
	}
	return c.collectSerial(roots, dsu)
}

func (c *Collector) collectSerial(roots Roots, dsu bool) (*Result, error) {
	start := time.Now()
	c.Rec.Emit(obs.KPhaseBegin, obs.LaneGCWorker(0), 0, "gc copy/scan")
	c.Heap.Flip()
	res := &Result{Workers: 1}
	k := c.newKernel(dsu)
	err := k.cheney(roots)
	k.commit(c.Heap, res)
	c.Rec.Emit(obs.KGCWorkerCopy, obs.LaneGCWorker(0), int64(res.CopiedWords), "")
	c.Rec.Emit(obs.KPhaseEnd, obs.LaneGCWorker(0), int64(res.CopiedWords), "gc copy/scan")
	if err != nil {
		return nil, err
	}
	if dsu {
		c.lastPairs = res.PairsLogged
	}
	c.Collections++
	c.CopiedObjects += res.CopiedObjects
	res.Duration = time.Since(start)
	res.PauseCopy = res.Duration // STW: the trace is fused with the copy
	return res, nil
}
