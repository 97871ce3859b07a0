package vm

import (
	"fmt"

	"govolve/internal/rt"
)

// ThreadState is the scheduler-visible state of a green thread.
type ThreadState int

const (
	// Runnable threads are scheduled round-robin.
	Runnable ThreadState = iota
	// Blocked threads wait on a native condition (e.g. a simulated
	// socket). A blocked thread is stopped at an instruction boundary,
	// which is a VM safe point: its stack is walkable, exactly like a
	// Jikes RVM thread parked in a blocking call.
	Blocked
	// UpdateWait threads hit a DSU return barrier and are parked until
	// the update completes or aborts (paper §3.2: "the thread will block
	// and JVOLVE will restart the update process").
	UpdateWait
	// Dead threads finished or were killed by a runtime error.
	Dead
)

func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case UpdateWait:
		return "update-wait"
	default:
		return "dead"
	}
}

// Frame is one activation record: compiled code, pc, tagged locals and
// operand stack. Tags make every frame an exact GC stack map. A frame is
// self-referential — Locals and Stack are windows of the slot run newFrame
// allocates behind the header, in the same Go block — so hold it by pointer
// and never copy it by value: the copy would share the original's slots.
type Frame struct {
	CM     *rt.CompiledMethod
	PC     int
	Locals []rt.Value
	Stack  []rt.Value

	// Barrier marks a DSU return barrier: when this frame returns, the
	// thread parks and the update process restarts.
	Barrier bool
}

// Method returns the frame's method.
func (f *Frame) Method() *rt.Method { return f.CM.Method }

// record is a frame and its slot run as one Go type, so one allocation.
type record[S any] struct {
	Frame
	slots S
}

// frameChunk is how many records of one shape come out of one Go allocation.
const frameChunk = 64

// carve hands out the next record of a chunk, front to back, and starts a
// fresh chunk when none is left. A record is never handed out twice.
func carve[S any](chunk *[]record[S]) *record[S] {
	if len(*chunk) == 0 {
		*chunk = make([]record[S], frameChunk)
	}
	r := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return r
}

// newFrame is the one place an activation record is built: header, nlocals
// zeroed locals and room for nstack operands, contiguous, carved from a chunk
// of frameChunk records that is ordinary garbage once no frame in it is
// reachable (no pool, no reuse: DESIGN.md §7.2). Go allocates by static type,
// hence the fixed shapes (§7.2 has the slot counts that chose them); spare
// slots go to the operand stack, and a frame beyond the last takes two blocks
// of its own.
func (v *VM) newFrame(cm *rt.CompiledMethod, nlocals, nstack int) *Frame {
	var f *Frame
	var slots []rt.Value
	switch n := nlocals + nstack; {
	case n <= 4:
		r := carve(&v.frames4)
		f, slots = &r.Frame, r.slots[:]
	case n <= 8:
		r := carve(&v.frames8)
		f, slots = &r.Frame, r.slots[:]
	case n <= 16:
		r := carve(&v.frames16)
		f, slots = &r.Frame, r.slots[:]
	default:
		f, slots = new(Frame), make([]rt.Value, n)
	}
	f.CM, f.Locals, f.Stack = cm, slots[:nlocals:nlocals], slots[nlocals:nlocals]
	if v.OnFrame != nil {
		v.OnFrame(f)
	}
	return f
}

// reseat gives f at least nlocals locals and room for nstack operands: if it
// lacks either, locals and live operands move to a fresh record's slots. The
// header stays (threads and the DSU engine hold it by pointer: pc and Barrier
// need no copying), and the fresh record's own header goes unused.
func (v *VM) reseat(f *Frame, nlocals, nstack int) {
	if nlocals > len(f.Locals) || nstack > cap(f.Stack) {
		nf := v.newFrame(f.CM, max(nlocals, len(f.Locals)), max(nstack, cap(f.Stack)))
		copy(nf.Locals, f.Locals)
		f.Locals, f.Stack = nf.Locals, append(nf.Stack, f.Stack...)
	}
}

// Thread is a VM green thread. The scheduler runs threads one at a time,
// switching only at yield points (method entry, method exit, loop
// backedges) — Jikes RVM's three yield point kinds.
type Thread struct {
	ID     int
	Name   string
	State  ThreadState
	Frames []*Frame
	// inline is where Frames starts: deep enough for every app handler, so a
	// thread's stack costs no allocation of its own until it outgrows it.
	inline [8]*Frame

	// WakeWhen is the wake predicate for Blocked threads.
	WakeWhen WakeFunc

	// SleepUntil is Thread.sleep's deadline (simulated steps). Blocking
	// natives retry their whole call on wake, so the deadline must live
	// across retries; zero means no sleep in progress.
	SleepUntil int64

	// Err records the runtime error that killed the thread, if any.
	Err error

	// Steps counts executed instructions, for scheduling fairness stats.
	Steps int64
}

// Top returns the innermost frame, or nil.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// push adds a new activation.
func (t *Thread) push(f *Frame) { t.Frames = append(t.Frames, f) }

// pop removes the innermost activation and clears its slot: a stale pointer in
// the backing array would pin the popped record's whole chunk.
func (t *Thread) pop() *Frame {
	n := len(t.Frames) - 1
	f := t.Frames[n]
	t.Frames[n] = nil
	t.Frames = t.Frames[:n]
	return f
}

// Backtrace renders the stack for diagnostics, innermost first.
func (t *Thread) Backtrace() string {
	s := fmt.Sprintf("thread %d (%s) %s:\n", t.ID, t.Name, t.State)
	for i := len(t.Frames) - 1; i >= 0; i-- {
		f := t.Frames[i]
		s += fmt.Sprintf("  at %s pc=%d (%s)\n", f.Method().FullName(), f.PC, f.CM.Level)
	}
	return s
}

// OnStack reports whether any activation of the given method set is live on
// this thread's stack — the DSU safe point check.
func (t *Thread) OnStack(restricted map[*rt.Method]bool) *Frame {
	for i := len(t.Frames) - 1; i >= 0; i-- {
		if restricted[t.Frames[i].Method()] {
			return t.Frames[i]
		}
	}
	return nil
}
