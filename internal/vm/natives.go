package vm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"govolve/internal/rt"
)

// NativeFunc implements a native method. It receives the argument values
// (receiver first for instance methods) and returns the result. args is a
// slice of the caller's operand stack: the collector keeps it current, so a
// native that allocates re-reads its operands from it afterwards (strings.go
// states the rule). A non-nil wake predicate parks the thread until it holds,
// then the call retries. A non-nil error kills the thread.
type NativeFunc func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error)

// WakeFunc is a parked thread's wake predicate. It is a plain function of
// the VM and the thread, not a closure, so blocking allocates nothing: what
// the thread waits for is already on the thread — a blocked native's
// arguments stay on its caller's operand stack until the call retries.
type WakeFunc func(v *VM, t *Thread) bool

// nativeBinding is what a native call needs, resolved once per rt.Method and
// cached in rt.Method.Native: the implementation and whether the call leaves
// a result on the operand stack.
type nativeBinding struct {
	fn   NativeFunc
	void bool
}

// BindNative registers a native implementation for Class.name(sig)ret.
// Rebinding a name updates the binding in place, so methods that already
// cached it follow.
func (v *VM) BindNative(class, nameSig string, fn NativeFunc) {
	key := class + "." + nameSig
	if b := v.natives[key]; b != nil {
		b.fn = fn
		return
	}
	v.natives[key] = &nativeBinding{fn: fn, void: strings.HasSuffix(nameSig, ")V")}
}

// bindNative resolves m's binding by name — "Class.name(sig)ret", so a class
// update that keeps or adds a native method binds its fresh rt.Method to the
// same implementation — and caches it on the method. An unbound native is not
// cached: it fails at each call until someone binds it.
func (v *VM) bindNative(m *rt.Method) *nativeBinding {
	b := v.natives[m.Class.Name+"."+m.Def.ID()]
	if b != nil {
		m.Native = b
	}
	return b
}

// retStr is the tail of a native that returns what NewString or substr built.
func retStr(a rt.Addr, err error) (rt.Value, WakeFunc, error) {
	if err != nil {
		return rt.Value{}, nil, err
	}
	return rt.RefVal(a), nil, nil
}

// Wake predicates of the blocking natives. A parked call's arguments stay on
// its caller's operand stack, the last one on top, whatever their number; so
// connPending and lineReady poll the parked native's LAST argument. That is
// the slot accept(port) and recvLine(conn) block on because each takes exactly
// one; a native that blocks on any other argument needs its own predicate.
func sleepOver(v *VM, t *Thread) bool   { return v.TotalSteps >= t.SleepUntil }
func connPending(v *VM, t *Thread) bool { return v.Net.hasPending(parkedLastArg(t)) }
func lineReady(v *VM, t *Thread) bool   { return v.Net.hasLine(parkedLastArg(t)) }

func parkedLastArg(t *Thread) int64 {
	st := t.Frames[len(t.Frames)-1].Stack
	return st[len(st)-1].Int()
}

func (v *VM) registerNatives() {
	// --- System ---------------------------------------------------------
	v.BindNative("System", "print(LString;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, _ := v.GoString(args[0].Ref())
		fmt.Fprint(v.Out, s)
		return rt.Value{}, nil, nil
	})
	v.BindNative("System", "println(LString;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, _ := v.GoString(args[0].Ref())
		fmt.Fprintln(v.Out, s)
		return rt.Value{}, nil, nil
	})
	v.BindNative("System", "printInt(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		fmt.Fprintln(v.Out, args[0].Int())
		return rt.Value{}, nil, nil
	})
	v.BindNative("System", "time()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		return rt.IntVal(v.SimMillis()), nil, nil
	})
	v.BindNative("System", "exit(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		v.Exited = true
		v.ExitCode = int(args[0].Int())
		for _, th := range v.Threads {
			th.State = Dead
		}
		return rt.Value{}, nil, nil
	})

	// --- Thread ---------------------------------------------------------
	v.BindNative("Thread", "spawn(LObject;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		obj := args[0].Ref()
		if obj == rt.Null {
			return rt.Value{}, nil, fmt.Errorf("Thread.spawn(null)")
		}
		cls := v.Reg.ClassByID(v.Heap.ClassID(obj))
		if cls == nil {
			return rt.Value{}, nil, fmt.Errorf("Thread.spawn: bad object")
		}
		run := cls.Method("run", "()V")
		if run == nil {
			return rt.Value{}, nil, fmt.Errorf("Thread.spawn: %s has no run()V", cls.Name)
		}
		if cls.SpawnName == "" {
			cls.SpawnName = cls.Name + ".run"
		}
		nt := v.newThread(cls.SpawnName)
		if err := v.callOn(nt, run, []rt.Value{args[0]}); err != nil {
			return rt.Value{}, nil, err
		}
		v.addThread(nt)
		return rt.Value{}, nil, nil
	})
	v.BindNative("Thread", "sleep(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		// Blocking natives are retried wholesale on wake, so the
		// deadline is stashed on the thread across retries.
		if t.SleepUntil == 0 {
			t.SleepUntil = v.TotalSteps + args[0].Int()*stepsPerMilli
		}
		if v.TotalSteps >= t.SleepUntil {
			t.SleepUntil = 0
			return rt.Value{}, nil, nil
		}
		return rt.Value{}, sleepOver, nil
	})

	// --- Net ------------------------------------------------------------
	v.BindNative("Net", "listen(I)I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		port, err := v.Net.listen(args[0].Int())
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.IntVal(port), nil, nil
	})
	v.BindNative("Net", "accept(I)I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		port := args[len(args)-1].Int() // the slot connPending polls
		if !v.Net.hasPending(port) {
			return rt.Value{}, connPending, nil
		}
		// accept's contract is (id, done): done=false means "open but
		// empty backlog" — unreachable here because hasPending held and
		// nothing ran in between. done=true with id=-1 means the
		// listener was closed (unlisten); -1 flows to the guest, whose
		// accept loop must treat a negative id as "listener closed"
		// rather than as a connection.
		id, done := v.Net.accept(port)
		if !done {
			return rt.Value{}, connPending, nil
		}
		return rt.IntVal(id), nil, nil
	})
	v.BindNative("Net", "unlisten(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		v.Net.unlisten(args[0].Int())
		return rt.Value{}, nil, nil
	})
	v.BindNative("Net", "recvLine(I)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		id := args[len(args)-1].Int() // the slot lineReady polls
		if !v.Net.hasLine(id) {
			return rt.Value{}, lineReady, nil
		}
		line, ok := v.Net.recvLine(id)
		if !ok {
			return rt.NullVal, nil, nil // connection closed
		}
		return retStr(v.NewString(line))
	})
	v.BindNative("Net", "send(ILString;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		line, ok := v.goBytes(args[1].Ref())
		if !ok {
			return rt.Value{}, nil, fmt.Errorf("Net.send: null line")
		}
		v.Net.send(args[0].Int(), line)
		return rt.Value{}, nil, nil
	})
	v.BindNative("Net", "close(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		v.Net.close(args[0].Int())
		return rt.Value{}, nil, nil
	})

	// --- Jvolve (transformer intrinsics) ---------------------------------
	v.BindNative("Jvolve", "forceTransform(LObject;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		if v.Residue == nil {
			return rt.Value{}, nil, fmt.Errorf("Jvolve.forceTransform outside an update")
		}
		if err := v.Residue.Transform(args[0].Ref()); err != nil {
			return rt.Value{}, nil, err
		}
		return rt.Value{}, nil, nil
	})

	// --- String ----------------------------------------------------------
	//
	// In place on the guest heap (strings.go): the readers below make no Go
	// allocation and no guest one; the builders allocate the String and then
	// re-read their operands from args.
	v.BindNative("String", "length()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.IntVal(int64(len(s))), nil, nil
	})
	v.BindNative("String", "charAt(I)C", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		i := args[1].Int()
		if i < 0 || i >= int64(len(s)) {
			return rt.Value{}, nil, fmt.Errorf("String.charAt(%d) out of range (len %d)", i, len(s))
		}
		return rt.IntVal(int64(s[i])), nil, nil
	})
	v.BindNative("String", "equals(LString;)Z", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		a, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := v.strWords(args[1].Ref())
		return rt.BoolVal(err == nil && slices.Equal(a, b)), nil, nil
	})
	v.BindNative("String", "concat(LString;)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		a, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := v.strWords(args[1].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		na, nb := len(a), len(b)
		str, err := v.allocChars(na + nb)
		if err != nil {
			return rt.Value{}, nil, err
		}
		v.Heap.CopyElems(str, 0, args[0].Ref(), 0, na)
		v.Heap.CopyElems(str, na, args[1].Ref(), 0, nb)
		return rt.RefVal(str), nil, nil
	})
	v.BindNative("String", "substring(II)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		from, to := args[1].Int(), args[2].Int()
		if from < 0 || to > int64(len(s)) || from > to {
			return rt.Value{}, nil, fmt.Errorf("String.substring(%d,%d) out of range (len %d)", from, to, len(s))
		}
		return retStr(v.substr(&args[0], int(from), int(to-from)))
	})
	v.BindNative("String", "indexOf(CI)I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		from := max(args[2].Int(), 0)
		if from < int64(len(s)) {
			if i := slices.Index(s[from:], uint64(args[1].Int())); i >= 0 {
				return rt.IntVal(from + int64(i)), nil, nil
			}
		}
		return rt.IntVal(-1), nil, nil
	})
	v.BindNative("String", "startsWith(LString;)Z", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		a, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := v.strWords(args[1].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.BoolVal(len(a) >= len(b) && slices.Equal(a[:len(b)], b)), nil, nil
	})
	v.BindNative("String", "endsWith(LString;)Z", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		a, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := v.strWords(args[1].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.BoolVal(len(a) >= len(b) && slices.Equal(a[len(a)-len(b):], b)), nil, nil
	})
	v.BindNative("String", "trim()LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		lo, hi := trimBounds(s)
		return retStr(v.substr(&args[0], lo, hi-lo))
	})
	v.BindNative("String", "toLowerCase()LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		str, err := v.allocChars(len(s))
		if err != nil {
			return rt.Value{}, nil, err
		}
		s, _ = v.strWords(args[0].Ref())
		dst := v.Heap.ElemWords(str)
		for i, c := range s {
			dst[i] = lowerWord(c)
		}
		return rt.RefVal(str), nil, nil
	})
	v.BindNative("String", "hashCode()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		var h int64
		for _, c := range s {
			h = h*31 + int64(c)
		}
		return rt.IntVal(h), nil, nil
	})
	v.BindNative("String", "toInt()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		lo, hi := trimBounds(s)
		s = s[lo:hi]
		neg := len(s) > 0 && s[0] == '-'
		if neg {
			s = s[1:]
		}
		var n int64
		for _, c := range s {
			if c < '0' || c > '9' {
				break
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return rt.IntVal(n), nil, nil
	})
	v.BindNative("String", "fromInt(I)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		var buf [20]byte // len("-9223372036854775808")
		digits := strconv.AppendInt(buf[:0], args[0].Int(), 10)
		str, err := v.allocChars(len(digits))
		if err != nil {
			return rt.Value{}, nil, err
		}
		w := v.Heap.ElemWords(str)
		for i, d := range digits {
			w[i] = uint64(d)
		}
		return rt.RefVal(str), nil, nil
	})
	v.BindNative("String", "split(C)[LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, WakeFunc, error) {
		s, err := v.strWords(args[0].Ref())
		if err != nil {
			return rt.Value{}, nil, err
		}
		sep := uint64(args[1].Int())
		parts := 1
		for _, c := range s {
			if c == sep {
				parts++
			}
		}
		arr, err := v.allocArray(true, parts)
		if err != nil {
			return rt.Value{}, nil, err
		}
		// The handle is read through its index, which outlives any growth of
		// the handle table.
		slot := len(v.Handles)
		v.PushHandle(arr)
		defer v.PopHandle(1)
		pos := 0
		for i := 0; i < parts; i++ {
			s, _ = v.strWords(args[0].Ref()) // the last round's allocations may have moved it
			n := slices.Index(s[pos:], sep)
			if n < 0 {
				n = len(s) - pos
			}
			part, err := v.substr(&args[0], pos, n)
			if err != nil {
				return rt.Value{}, nil, err
			}
			v.Heap.SetElem(v.Handles[slot].Ref(), i, rt.RefVal(part))
			pos += n + 1
		}
		return rt.RefVal(v.Handles[slot].Ref()), nil, nil
	})
}

// stepsPerMilli converts the simulated clock: 1000 interpreted instructions
// per simulated millisecond.
const stepsPerMilli = 1000

// SimMillis returns the simulated clock in milliseconds.
func (v *VM) SimMillis() int64 { return v.TotalSteps / stepsPerMilli }
