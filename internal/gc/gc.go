// Package gc implements the semi-space copying collector and its DSU
// extension (JVOLVE paper §3.4). A normal collection copies reachable
// objects to to-space and forwards references. In DSU mode, when the
// collector first encounters an instance of an updated class it allocates
// *two* objects — an uninitialized shell of the new class in to-space and a
// copy of the old object (old layout, old class ID) in from-space's unused end
// (§3.5's "special block"; behind the shell once that is full) — installs the
// forwarding pointer to the shell, and records the pair in the update log.
// After the collection the DSU engine runs object transformers over the log;
// the next flip reclaims the old copies, and the engine retires the log first.
//
// When the class's transformer is a pure field copy (rt.Class.Moves) the
// collector performs it instead: one object, written in the new layout as it
// is copied, forwarded to and scanned like any other — no pair, no log entry
// (kernel.go: kernel.move).
package gc

import (
	"errors"
	"fmt"
	"time"

	"govolve/internal/heap"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// ErrToSpaceExhausted is the typed fatal-OOM cause: a collection ran out of
// copy space mid-flight.
// The semispace flip has already happened and an unknown subset of roots has
// been forwarded, so the heap is unusable afterwards — callers must treat it
// as fatal (the VM marks the heap dead and surfaces the error in DeadErrors)
// rather than retry.
var ErrToSpaceExhausted = errors.New("gc: copy space exhausted during collection")

// ErrPreFlip tags collection failures raised *before* the semispace flip:
// nothing has been copied, no forwarding pointer installed, no root
// rewritten — the heap is fully usable. CollectReloc's rescan and
// allocate-black walk can fail this way (structural errors such as an unknown
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

// Pair is one update-log entry: the to-space copy of the old object and the
// uninitialized new-class object.
type Pair struct {
	OldCopy rt.Addr
	New     rt.Addr
}

// Result reports one collection: its update log and its record.
type Result struct {
	// Log is the update log (empty for non-DSU collections), in
	// first-encounter order. Each shell also caches its old copy's address
	// in its pair word (heap/bits.go), as in the paper (§3.4).
	Log []Pair
	Collection
}

// Collection is one collection's counters and pause split. It has one home:
// core.Stats embeds it, and the engine stores it there whole.
type Collection struct {
	CopiedObjects int
	CopiedWords   int
	// PairsLogged counts DSU pairs recorded in Log — objects the collection
	// *scheduled* for transformation. (It was once called Transformed, which
	// conflated it with the engine-side count of objects whose transformer
	// actually ran; that number lives in core.Stats.)
	PairsLogged int
	// TailWords counts old-copy words placed in from-space's tail (of
	// CopiedWords; the rest of the old copies overflowed into to-space).
	TailWords int
	// Moved counts instances of updated classes the collection wrote directly
	// in their new layout (rt.Class.Moves): transformed as they were copied,
	// so they are in CopiedObjects once and in neither Log nor PairsLogged.
	Moved    int
	Duration time.Duration

	// Pause decomposition — uniform across both collector shapes so pausecmp
	// rows compare like with like. The measured phases are disjoint slices of
	// Duration: PauseRescan is the SATB deletion-log drain + root re-scan a
	// collection that consumes a concurrent mark still does inside the pause
	// (the only in-pause tracing it has), and PauseCopy is the in-pause copy
	// work — the whole fused trace+copy for the STW collector (PauseCopy =
	// Duration there), and for CollectReloc the kernel's eager evacuation of
	// updated instances plus the objects the roots point at (the bulk copy
	// runs in the concurrent drain, reported by RelocStats.Drain instead).
	PauseRescan time.Duration
	PauseCopy   time.Duration

	// Concurrent-mark bookkeeping (zero unless MarkConcurrent). MarkOutside
	// is the concurrent trace's wall time — work moved *out* of
	// the pause; MarkSetup is the snapshot capture + barrier arm mini-stop.
	MarkConcurrent bool
	MarkOutside    time.Duration
	MarkSetup      time.Duration
	MarkedObjects  int // objects greyed by the concurrent trace (roots included)
	RescanMarked   int // objects the pause rescan additionally marked
	SATBDrained    int // deletion-log entries drained at the pause

	// Relocated marks a CollectReloc result: the world resumed with
	// from-space still live and a concurrent relocation drain in flight.
	// CopiedObjects/CopiedWords then cover only the pause's work — the eager
	// instances and the objects the roots point at; the drain's share arrives
	// later in RelocStats.
	Relocated bool
}

// Collector is the collection machinery bound to one heap and registry. Every
// collection runs on one thread: the stop-the-world steps of both collector
// shapes on the embedded kernel, which keeps its tables' capacity between them.
type Collector struct {
	Heap *heap.Heap
	Reg  *rt.Registry

	// Collections counts completed collections.
	Collections int
	// CopiedObjects accumulates objects copied across all collections —
	// the cumulative series behind the govolve_gc_copied_objects_total
	// metric (per-collection numbers live in Result).
	CopiedObjects int

	// Rec, when attached (vm.AttachObs), receives the collector's flight-
	// recorder events: one phase span per copy/scan, mark and drain plus a
	// copied-words summary. Nil disables emission entirely.
	Rec *obs.Recorder

	// lastPairs, the previous DSU collection's pair count, sizes the next one's
	// log.
	lastPairs int

	// mark is the in-flight concurrent marker (nil when none — the common
	// case; every STW entry point pays one nil check). pool keeps the mark
	// bitmap, SATB buffer, and grey stack alive across collections so
	// repeated updates allocate no per-cycle scratch.
	mark *Marker
	pool markPool

	kernel
}

// New builds a collector.
func New(h *heap.Heap, reg *rt.Registry) *Collector {
	c := &Collector{Heap: h, Reg: reg}
	c.root = c.forwardRoot
	return c
}

// Collect runs a full collection. With dsu set, instances of classes whose
// UpdatedTo field is non-nil are transformed as described in the package
// comment. A collection failure (ErrToSpaceExhausted) leaves the heap
// unusable — the flip already happened and roots are partially forwarded —
// and the VM treats it as fatal OOM (vm.MarkHeapUnusable).
//
// The collection is a Cheney scan driven by the copy/scan kernel (kernel.go).
func (c *Collector) Collect(roots Roots, dsu bool) (Result, error) {
	if c.mark != nil {
		// A concurrent mark is in flight but a collection must run now
		// (e.g. the mutator exhausted the heap mid-mark). The flip would
		// move memory under the tracer and invalidate every marked
		// address, so the snapshot is stale: join the tracer and discard
		// it before touching anything. The engine observes the abort and
		// restarts the mark against the post-collection heap.
		c.AbortMark()
	}
	return c.collectSerial(roots, dsu)
}

func (c *Collector) collectSerial(roots Roots, dsu bool) (Result, error) {
	start := time.Now()
	c.Rec.Emit(obs.KPhaseBegin, obs.LaneGC, 0, "gc copy/scan")
	c.Heap.Flip()
	var res Result
	k := c.open(dsu)
	err := k.cheney(roots)
	k.commit(c.Heap, &res)
	c.Rec.Emit(obs.KGCWorkerCopy, obs.LaneGC, int64(res.CopiedWords), "")
	c.Rec.Emit(obs.KPhaseEnd, obs.LaneGC, int64(res.CopiedWords), "gc copy/scan")
	if err != nil {
		return Result{}, err
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
