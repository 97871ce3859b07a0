package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"govolve/internal/rt"
)

// The String layout's tests: a String is one non-reference array whose header
// carries String's class id (heap/bits.go). Building one is one guest
// allocation, and everything that reads a class id — the type tests, virtual
// dispatch, the lazy read barrier, the collector — treats it as the String it
// is, while every other array stays an array.

// allocDelta runs fn and returns the guest objects and arrays it allocated.
func allocDelta(v *VM, fn func()) (objects, arrays int64) {
	o, a := v.stats.AllocObjects, v.stats.AllocArrays
	fn()
	return v.stats.AllocObjects - o, v.stats.AllocArrays - a
}

// TestStringBuildersAllocateOnce: every String the runtime builds — by each
// builder native, ldc and Net.recvLine — is exactly one array allocation and
// no object allocation; split adds its array of parts.
func TestStringBuildersAllocateOnce(t *testing.T) {
	s := newStrVM(t)
	line := s.str("  GET /a,b HTTP/1.0  ")
	abc := s.str("abc")
	for _, tc := range []struct {
		nameSig string
		args    []rt.Value
		arrays  int64
	}{
		{"concat(LString;)LString;", []rt.Value{line, abc}, 1},
		{"concat(LString;)LString;", []rt.Value{abc, s.str("")}, 1},
		{"substring(II)LString;", []rt.Value{line, rt.IntVal(2), rt.IntVal(5)}, 1},
		{"trim()LString;", []rt.Value{line}, 1},
		{"toLowerCase()LString;", []rt.Value{line}, 1},
		{"fromInt(I)LString;", []rt.Value{rt.IntVal(-12345)}, 1},
		{"split(C)[LString;", []rt.Value{line, rt.IntVal(',')}, 1 + 2},
		{"split(C)[LString;", []rt.Value{line, rt.IntVal(' ')}, 1 + 7},
	} {
		objects, arrays := allocDelta(s.v, func() { s.call(tc.nameSig, tc.args...) })
		if objects != 0 || arrays != tc.arrays {
			t.Errorf("String.%s allocated %d objects and %d arrays, want 0 and %d", tc.nameSig, objects, arrays, tc.arrays)
		}
	}
	if objects, arrays := allocDelta(s.v, func() { s.str("héllo 😀") }); objects != 0 || arrays != 1 {
		t.Errorf("NewString allocated %d objects and %d arrays, want 0 and 1", objects, arrays)
	}

	// ldc builds its String once, on first execution; Net.recvLine one per line.
	loadSrc(t, s.v, `
class T {
  static method main()V {
    const 2
    store 0
  again:
    ldc "interned"
    pop
    load 0
    const 1
    sub
    dup
    store 0
    ifne again
    return
  }
}`)
	if objects, arrays := allocDelta(s.v, func() { runMain(t, s.v, "T") }); objects != 0 || arrays != 1 {
		t.Errorf("ldc ×2 allocated %d objects and %d arrays, want 0 and 1", objects, arrays)
	}
	if _, err := s.v.Net.listen(80); err != nil {
		t.Fatal(err)
	}
	c, err := s.v.Net.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.v.Net.ClientSend(c, "GET /index.html"); err != nil {
		t.Fatal(err)
	}
	id, _ := s.v.Net.accept(80)
	var got rt.Value
	objects, arrays := allocDelta(s.v, func() {
		got, _, err = s.v.natives["Net.recvLine(I)LString;"].fn(s.v, nil, []rt.Value{rt.IntVal(id)})
	})
	if err != nil || s.goStr(got) != "GET /index.html" || objects != 0 || arrays != 1 {
		t.Errorf("recvLine = %q (%v), %d objects and %d arrays, want one array", s.goStr(got), err, objects, arrays)
	}
}

// typeTestSrc runs the type tests and a virtual call on a String, on the
// fused load+invokevirtual path and the plain one, and on what T.fake hands
// back: a String-typed value that is really the array the test binds it to.
const typeTestSrc = `
class T {
  native static method fake()LString;

  static method main()V {
    ldc "héllo"
    store 0
    load 0
    instanceof String
    invokestatic System.printInt(I)V
    load 0
    instanceof Object
    invokestatic System.printInt(I)V
    load 0
    checkcast Object
    checkcast String
    invokevirtual String.length()I
    invokestatic System.printInt(I)V
    load 0
    invokevirtual String.length()I
    invokestatic System.printInt(I)V
    new String
    instanceof String
    invokestatic System.printInt(I)V
    invokestatic T.fake()LString;
    instanceof String
    invokestatic System.printInt(I)V
    invokestatic T.fake()LString;
    instanceof Object
    invokestatic System.printInt(I)V
    invokestatic T.fake()LString;
    %s
    return
  }
}`

// TestStringTypeTestsAndDispatch: a String is an instance of String and of
// Object and takes a virtual call, on both call paths; a plain char or
// reference array is an instance of Object only, fails a checkcast to String,
// and is refused as a virtual receiver on both paths.
func TestStringTypeTestsAndDispatch(t *testing.T) {
	for _, arr := range []struct {
		name string
		ref  bool
	}{{"char array", false}, {"reference array", true}} {
		for _, tail := range []struct{ code, err string }{
			{"invokevirtual String.length()I\n    pop", "virtual call on array"},
			{"store 1\n    load 1\n    invokevirtual String.length()I\n    pop", "virtual call on array"},
			{"checkcast String\n    pop", "checkcast to String failed"},
		} {
			t.Run(arr.name+"/"+tail.err, func(t *testing.T) {
				v, out := newTestVM(t, 1<<16)
				v.BindNative("T", "fake()LString;", func(v *VM, _ *Thread, _ []rt.Value) (rt.Value, WakeFunc, error) {
					a, err := v.allocArray(arr.ref, 3)
					return rt.RefVal(a), nil, err
				})
				loadSrc(t, v, fmt.Sprintf(typeTestSrc, tail.code))
				if _, err := v.SpawnMain("T"); err != nil {
					t.Fatal(err)
				}
				_ = v.Run()
				if got, want := out.String(), "1\n1\n5\n5\n1\n0\n1\n"; got != want {
					t.Errorf("output %q, want %q", got, want)
				}
				if th := v.Threads[0]; th.Err == nil || !strings.Contains(th.Err.Error(), tail.err) {
					t.Errorf("%s: thread error %v, want %q", tail.code, th.Err, tail.err)
				}
			})
		}
	}
}

// TestGuestNewStringIsEmpty: a guest `new String` — a plain two-word object,
// not an array — behaves as "" through every native, as receiver and as
// argument.
func TestGuestNewStringIsEmpty(t *testing.T) {
	s := newStrVM(t)
	a, err := s.v.allocObject(s.v.strCls)
	if err != nil {
		t.Fatal(err)
	}
	blank, empty, abc := rt.RefVal(a), s.str(""), s.str("abc")
	render := func(v rt.Value, errText string) string {
		if errText != "" {
			return "error " + errText
		}
		if v.IsRef && s.v.Heap.IsArray(v.Ref()) && s.v.Heap.ClassID(v.Ref()) == 0 { // split's parts
			parts := []string{}
			for i := 0; i < s.v.Heap.ArrayLen(v.Ref()); i++ {
				parts = append(parts, s.goStr(s.v.Heap.Elem(v.Ref(), i)))
			}
			return fmt.Sprintf("%q", parts)
		}
		if v.IsRef {
			return fmt.Sprintf("%q", s.goStr(v))
		}
		return fmt.Sprint(v.Int())
	}
	for _, tc := range []struct {
		nameSig string
		extra   []rt.Value
	}{
		{"length()I", nil},
		{"charAt(I)C", []rt.Value{rt.IntVal(0)}},
		{"equals(LString;)Z", []rt.Value{empty}},
		{"equals(LString;)Z", []rt.Value{abc}},
		{"concat(LString;)LString;", []rt.Value{abc}},
		{"substring(II)LString;", []rt.Value{rt.IntVal(0), rt.IntVal(0)}},
		{"indexOf(CI)I", []rt.Value{rt.IntVal('a'), rt.IntVal(0)}},
		{"startsWith(LString;)Z", []rt.Value{empty}},
		{"endsWith(LString;)Z", []rt.Value{abc}},
		{"trim()LString;", nil},
		{"toLowerCase()LString;", nil},
		{"hashCode()I", nil},
		{"toInt()I", nil},
		{"split(C)[LString;", []rt.Value{rt.IntVal(',')}},
	} {
		got := render(s.call(tc.nameSig, append([]rt.Value{blank}, tc.extra...)...))
		if want := render(s.call(tc.nameSig, append([]rt.Value{empty}, tc.extra...)...)); got != want {
			t.Errorf("new String.%s = %s, \"\".%s = %s", tc.nameSig, got, tc.nameSig, want)
		}
	}
	for _, nameSig := range []string{"equals(LString;)Z", "concat(LString;)LString;", "startsWith(LString;)Z", "endsWith(LString;)Z"} {
		got := render(s.call(nameSig, abc, blank))
		if want := render(s.call(nameSig, abc, empty)); got != want {
			t.Errorf("abc.%s(new String) = %s, abc.%s(\"\") = %s", nameSig, got, nameSig, want)
		}
	}
	if x, ok := s.v.GoString(a); !ok || x != "" {
		t.Errorf("GoString(new String) = %q, %v", x, ok)
	}

	// The same from guest code, where `new String` comes from the bytecode.
	v, out := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static method main()V {
    new String
    store 0
    load 0
    invokevirtual String.length()I
    invokestatic System.printInt(I)V
    load 0
    ldc ""
    invokevirtual String.equals(LString;)Z
    invokestatic System.printInt(I)V
    load 0
    ldc "x"
    invokevirtual String.concat(LString;)LString;
    invokestatic System.println(LString;)V
    return
  }
}`)
	runMain(t, v, "T")
	if got := out.String(); got != "0\n1\nx\n" {
		t.Errorf("guest new String: output %q, want %q", got, "0\n1\nx\n")
	}
}

// TestStringReceiverNeverTouched: with the on-touch read barrier armed, a
// String receiver of any length — whose word 1, read as a pair word, would
// look pending — never reaches VM.touch, on the plain or the fused call path.
func TestStringReceiverNeverTouched(t *testing.T) {
	v, out := newTestVM(t, 1<<16)
	touched := 0
	v.Residue = &DSUResidue{
		OnTouch:   true,
		Transform: func(a rt.Addr) error { touched++; return errors.New("a String is never pending") },
		Tick:      func() {},
		Force:     func() error { return nil },
	}
	loadSrc(t, v, `
class T {
  static method main()V {
    ldc ""
    store 0
    const 0
    store 1
  loop:
    load 0
    invokevirtual String.length()I
    ldc "x"
    invokevirtual String.length()I
    add
    invokestatic System.printInt(I)V
    load 0
    ldc "ab"
    invokevirtual String.concat(LString;)LString;
    store 0
    load 1
    const 1
    add
    dup
    store 1
    const 40
    if_icmplt loop
    return
  }
}`)
	runMain(t, v, "T")
	if touched != 0 {
		t.Fatalf("%d String receivers entered VM.touch", touched)
	}
	if n := strings.Count(out.String(), "\n"); n != 40 {
		t.Fatalf("%d lines of output, want 40", n)
	}
}

// TestStringSurvivesCollections: a String keeps its class id, length and
// words through a plain collection, a DSU collection and a relocation drain —
// reached through a root directly and through a reference array, the drain's
// copies taken both by the load barrier and by the drain itself.
func TestStringSurvivesCollections(t *testing.T) {
	s := newStrVM(t)
	text := []string{"GET /index.html", "", "日本語 😀"}
	arr, err := s.v.allocArray(true, len(text))
	if err != nil {
		t.Fatal(err)
	}
	s.v.PushHandle(arr)
	for i, x := range text {
		str := s.str(x)
		s.v.Heap.SetElem(s.v.Handles[0].Ref(), i, str)
	}
	s.v.PushHandle(s.v.Heap.Elem(s.v.Handles[0].Ref(), 0).Ref())
	check := func(when string) {
		t.Helper()
		strs := []rt.Addr{s.v.Handles[1].Ref()}
		for i := range text {
			strs = append(strs, s.v.Heap.Elem(s.v.Handles[0].Ref(), i).Ref())
		}
		for i, a := range strs {
			want := text[max(i-1, 0)]
			if s.v.Heap.ClassID(a) != s.v.strCls.ID || !s.v.Heap.IsArray(a) || s.v.Heap.ArrayElemIsRef(a) {
				t.Fatalf("%s: String @%d has header %#x", when, a, s.v.Heap.Word(a))
			}
			if !slices.Equal(s.v.Heap.ElemWords(a), wordsOf(want)) {
				t.Fatalf("%s: String @%d holds %#x, want %q", when, a, s.v.Heap.ElemWords(a), want)
			}
		}
	}
	for _, dsu := range []bool{false, true} {
		if _, err := s.v.GC.Collect(s.v, dsu); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("collection (dsu %v)", dsu))
	}
	// The relocating pause copies what the roots point at; the load barrier
	// takes the last element as it is read, the drain the middle one.
	_, rl, err := s.v.GC.CollectReloc(s.v)
	if err != nil {
		t.Fatal(err)
	}
	if last := s.v.Heap.Elem(s.v.Handles[0].Ref(), 2).Ref(); !slices.Equal(s.v.Heap.ElemWords(last), wordsOf(text[2])) {
		t.Fatalf("String healed by the load barrier holds %#x", s.v.Heap.ElemWords(last))
	}
	if _, err := rl.Finish(); err != nil {
		t.Fatal(err)
	}
	check("relocation drain")
}

// wordsOf is the code points of x, one word each.
func wordsOf(x string) []uint64 {
	w := []uint64{}
	for _, r := range x {
		w = append(w, uint64(r))
	}
	return w
}
