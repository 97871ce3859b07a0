package vm

import (
	"fmt"
	"strings"

	"govolve/internal/rt"
)

// NativeFunc implements a native method. It receives the argument values
// (receiver first for instance methods) and returns the result. A non-nil
// block function parks the thread until the condition holds, then the call
// retries. A non-nil error kills the thread.
type NativeFunc func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error)

// nativeKey identifies a native binding: "Class.name(sig)". Bindings are by
// name, so a class update that keeps a native method re-binds automatically.
func nativeKey(m *rt.Method) string {
	return m.Class.Name + "." + m.Def.ID()
}

// BindNative registers a native implementation for Class.name(sig)ret.
func (v *VM) BindNative(class, nameSig string, fn NativeFunc) {
	v.natives[class+"."+nameSig] = fn
}

func (v *VM) registerNatives() {
	// --- System ---------------------------------------------------------
	v.BindNative("System", "print(LString;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, _ := v.GoString(args[0].Ref())
		fmt.Fprint(v.Out, s)
		return rt.Value{}, nil, nil
	})
	v.BindNative("System", "println(LString;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, _ := v.GoString(args[0].Ref())
		fmt.Fprintln(v.Out, s)
		return rt.Value{}, nil, nil
	})
	v.BindNative("System", "printInt(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		fmt.Fprintln(v.Out, args[0].Int())
		return rt.Value{}, nil, nil
	})
	v.BindNative("System", "time()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		return rt.IntVal(v.SimMillis()), nil, nil
	})
	v.BindNative("System", "exit(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		v.Exited = true
		v.ExitCode = int(args[0].Int())
		for _, th := range v.Threads {
			th.State = Dead
		}
		return rt.Value{}, nil, nil
	})

	// --- Thread ---------------------------------------------------------
	v.BindNative("Thread", "spawn(LObject;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
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
		nt := v.newThread(cls.Name + ".run")
		if err := v.callOn(nt, run, []rt.Value{args[0]}); err != nil {
			return rt.Value{}, nil, err
		}
		v.addThread(nt)
		return rt.Value{}, nil, nil
	})
	v.BindNative("Thread", "sleep(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		// Blocking natives are retried wholesale on wake, so the
		// deadline is stashed on the thread across retries.
		if t.SleepUntil == 0 {
			t.SleepUntil = v.TotalSteps + args[0].Int()*stepsPerMilli
		}
		if v.TotalSteps >= t.SleepUntil {
			t.SleepUntil = 0
			return rt.Value{}, nil, nil
		}
		wake := t.SleepUntil
		return rt.Value{}, func() bool { return v.TotalSteps >= wake }, nil
	})

	// --- Net ------------------------------------------------------------
	v.BindNative("Net", "listen(I)I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		port, err := v.Net.listen(args[0].Int())
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.IntVal(port), nil, nil
	})
	v.BindNative("Net", "accept(I)I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		port := args[0].Int()
		if !v.Net.hasPending(port) {
			return rt.Value{}, func() bool { return v.Net.hasPending(port) }, nil
		}
		// accept's contract is (id, done): done=false means "open but
		// empty backlog" — unreachable here because hasPending held and
		// nothing ran in between. done=true with id=-1 means the
		// listener was closed (unlisten); -1 flows to the guest, whose
		// accept loop must treat a negative id as "listener closed"
		// rather than as a connection.
		id, done := v.Net.accept(port)
		if !done {
			return rt.Value{}, func() bool { return v.Net.hasPending(port) }, nil
		}
		return rt.IntVal(id), nil, nil
	})
	v.BindNative("Net", "unlisten(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		v.Net.unlisten(args[0].Int())
		return rt.Value{}, nil, nil
	})
	v.BindNative("Net", "recvLine(I)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		id := args[0].Int()
		if !v.Net.hasLine(id) {
			return rt.Value{}, func() bool { return v.Net.hasLine(id) }, nil
		}
		line, ok := v.Net.recvLine(id)
		if !ok {
			return rt.NullVal, nil, nil // connection closed
		}
		a, err := v.NewString(line)
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.RefVal(a), nil, nil
	})
	v.BindNative("Net", "send(ILString;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		line, ok := v.GoString(args[1].Ref())
		if !ok {
			return rt.Value{}, nil, fmt.Errorf("Net.send: null line")
		}
		v.Net.send(args[0].Int(), line)
		return rt.Value{}, nil, nil
	})
	v.BindNative("Net", "close(I)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		v.Net.close(args[0].Int())
		return rt.Value{}, nil, nil
	})

	// --- Jvolve (transformer intrinsics) ---------------------------------
	v.BindNative("Jvolve", "forceTransform(LObject;)V", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		if v.Residue == nil {
			return rt.Value{}, nil, fmt.Errorf("Jvolve.forceTransform outside an update")
		}
		if err := v.Residue.Transform(args[0].Ref()); err != nil {
			return rt.Value{}, nil, err
		}
		return rt.Value{}, nil, nil
	})

	// --- String ----------------------------------------------------------
	str := func(a rt.Value) (string, error) {
		s, ok := v.GoString(a.Ref())
		if !ok {
			return "", fmt.Errorf("null String receiver")
		}
		return s, nil
	}
	ret := func(s string) (rt.Value, func() bool, error) {
		a, err := v.NewString(s)
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.RefVal(a), nil, nil
	}
	v.BindNative("String", "length()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.IntVal(int64(len([]rune(s)))), nil, nil
	})
	v.BindNative("String", "charAt(I)C", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		r := []rune(s)
		i := args[1].Int()
		if i < 0 || int(i) >= len(r) {
			return rt.Value{}, nil, fmt.Errorf("String.charAt(%d) out of range (len %d)", i, len(r))
		}
		return rt.IntVal(int64(r[i])), nil, nil
	})
	v.BindNative("String", "equals(LString;)Z", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		a, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, ok := v.GoString(args[1].Ref())
		return rt.BoolVal(ok && a == b), nil, nil
	})
	v.BindNative("String", "concat(LString;)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		a, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := str(args[1])
		if err != nil {
			return rt.Value{}, nil, err
		}
		return ret(a + b)
	})
	v.BindNative("String", "substring(II)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		r := []rune(s)
		from, to := args[1].Int(), args[2].Int()
		if from < 0 || to > int64(len(r)) || from > to {
			return rt.Value{}, nil, fmt.Errorf("String.substring(%d,%d) out of range (len %d)", from, to, len(r))
		}
		return ret(string(r[from:to]))
	})
	v.BindNative("String", "indexOf(CI)I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		r := []rune(s)
		ch := rune(args[1].Int())
		from := int(args[2].Int())
		if from < 0 {
			from = 0
		}
		for i := from; i < len(r); i++ {
			if r[i] == ch {
				return rt.IntVal(int64(i)), nil, nil
			}
		}
		return rt.IntVal(-1), nil, nil
	})
	v.BindNative("String", "startsWith(LString;)Z", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		a, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := str(args[1])
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.BoolVal(strings.HasPrefix(a, b)), nil, nil
	})
	v.BindNative("String", "endsWith(LString;)Z", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		a, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		b, err := str(args[1])
		if err != nil {
			return rt.Value{}, nil, err
		}
		return rt.BoolVal(strings.HasSuffix(a, b)), nil, nil
	})
	v.BindNative("String", "trim()LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		return ret(strings.TrimSpace(s))
	})
	v.BindNative("String", "toLowerCase()LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		return ret(strings.ToLower(s))
	})
	v.BindNative("String", "hashCode()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		var h int64
		for _, r := range s {
			h = h*31 + int64(r)
		}
		return rt.IntVal(h), nil, nil
	})
	v.BindNative("String", "toInt()I", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		var n int64
		neg := false
		s = strings.TrimSpace(s)
		if strings.HasPrefix(s, "-") {
			neg = true
			s = s[1:]
		}
		for _, r := range s {
			if r < '0' || r > '9' {
				break
			}
			n = n*10 + int64(r-'0')
		}
		if neg {
			n = -n
		}
		return rt.IntVal(n), nil, nil
	})
	v.BindNative("String", "fromInt(I)LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		return ret(fmt.Sprintf("%d", args[0].Int()))
	})
	v.BindNative("String", "split(C)[LString;", func(v *VM, t *Thread, args []rt.Value) (rt.Value, func() bool, error) {
		s, err := str(args[0])
		if err != nil {
			return rt.Value{}, nil, err
		}
		parts := strings.Split(s, string(rune(args[1].Int())))
		arr, err := v.allocArray(true, len(parts))
		if err != nil {
			return rt.Value{}, nil, err
		}
		h := v.PushHandle(arr)
		for i, p := range parts {
			sa, err := v.NewString(p)
			if err != nil {
				v.PopHandle(1)
				return rt.Value{}, nil, err
			}
			v.Heap.SetElem(h.Ref(), i, rt.RefVal(sa))
		}
		arr = h.Ref()
		v.PopHandle(1)
		return rt.RefVal(arr), nil, nil
	})
}

// stepsPerMilli converts the simulated clock: 1000 interpreted instructions
// per simulated millisecond.
const stepsPerMilli = 1000

// SimMillis returns the simulated clock in milliseconds.
func (v *VM) SimMillis() int64 { return v.TotalSteps / stepsPerMilli }
