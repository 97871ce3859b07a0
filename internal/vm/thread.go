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
// operand stack. Tags make every frame an exact GC stack map.
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

// Thread is a VM green thread. The scheduler runs threads one at a time,
// switching only at yield points (method entry, method exit, loop
// backedges) — Jikes RVM's three yield point kinds.
type Thread struct {
	ID     int
	Name   string
	State  ThreadState
	Frames []*Frame

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

// pop removes the innermost activation.
func (t *Thread) pop() *Frame {
	f := t.Frames[len(t.Frames)-1]
	t.Frames = t.Frames[:len(t.Frames)-1]
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
