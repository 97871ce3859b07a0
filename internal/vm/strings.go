package vm

import (
	"errors"
	"fmt"
	"unicode"
	"unicode/utf8"

	"govolve/internal/rt"
)

// The string runtime. A String is one object whose only field, chars, holds
// a non-reference array with one code point per word. The String natives
// (natives.go) work on those words where they lie: readers take an
// heap.ElemWords window, builders allocate the result array and copy heap to
// heap with heap.CopyElems. A Go string is built or consumed only where text
// crosses the VM boundary — NewString and GoString, used by ldc, Net.recvLine
// and System.print*, and Net.send's interned lines (NetSim.send). Words are opaque in place: nothing but
// GoString cares whether one is a valid code point.
//
// The GC-safety rule. Every guest allocation may collect, a collection moves
// objects, and the collector rewrites root slots only (frame locals and
// operand stacks, handles, JTOC, interns). So no rt.Addr and no ElemWords
// window survives an allocation: a native re-reads its operands from args —
// a slice of the caller's operand stack, hence root slots — after every
// allocObject/allocArray, and pins what it allocated itself with a handle.
//
// The allocation-order invariant. Every String the runtime builds is two
// guest allocations, the char array first and the String object second, of
// the sizes the text dictates. Heap layout, collection timing and therefore
// every storm/stream report depend on that sequence; an implementation may
// change how the words get there, never what is allocated or in which order.
// A builder's char array comes from allocChars, unzeroed: it writes every
// element before its next allocation.

var errNullString = errors.New("null String receiver")

// strChars returns the char array of a non-null String (rt.Null for a String
// whose chars field was never set, which reads as "").
func (v *VM) strChars(s rt.Addr) rt.Addr {
	return v.Heap.FieldValue(s, v.strCharsOff, true).Ref()
}

// strWords returns the code-point words of a String in place, or
// errNullString for null. The window dies at the next guest allocation.
func (v *VM) strWords(s rt.Addr) ([]uint64, error) {
	if s == rt.Null {
		return nil, errNullString
	}
	arr := v.strChars(s)
	if arr == rt.Null {
		return nil, nil
	}
	return v.Heap.ElemWords(arr), nil
}

// wrapChars allocates the String object around a freshly built char array.
func (v *VM) wrapChars(arr rt.Addr) (rt.Addr, error) {
	slot := len(v.Handles)
	v.PushHandle(arr)
	obj, err := v.allocObject(v.strCls)
	arr = v.Handles[slot].Ref() // the allocation may have moved it
	v.PopHandle(1)
	if err != nil {
		return 0, err
	}
	v.Heap.SetFieldValue(obj, v.strCharsOff, rt.RefVal(arr))
	return obj, nil
}

// substr allocates a String holding n words, from index from, of the String
// in the root slot src (bounds are the caller's business). src is re-read
// after the array allocation, per the GC-safety rule.
func (v *VM) substr(src *rt.Value, from, n int) (rt.Addr, error) {
	arr, err := v.allocChars(n)
	if err != nil {
		return 0, err
	}
	v.Heap.CopyElems(arr, 0, v.strChars(src.Ref()), from, n)
	return v.wrapChars(arr)
}

// NewString allocates a String object holding the given Go string, one code
// point per word, with no Go allocation. Invalid UTF-8 decodes to U+FFFD per
// byte, as a []rune conversion would.
func (v *VM) NewString(s string) (rt.Addr, error) {
	n := utf8.RuneCountInString(s)
	arr, err := v.allocChars(n)
	if err != nil {
		return 0, err
	}
	w, i := v.Heap.ElemWords(arr), 0
	for _, r := range s {
		w[i] = uint64(r)
		i++
	}
	return v.wrapChars(arr)
}

// GoString reads a String object back into a Go string — one Go allocation,
// the string itself. It accepts null (returning "" and false).
func (v *VM) GoString(a rt.Addr) (string, bool) {
	b, ok := v.goBytes(a)
	return string(b), ok
}

// goBytes gathers a String's UTF-8 bytes in a scratch the VM owns, valid until
// the next call. Words that are not Unicode scalar values encode as U+FFFD.
func (v *VM) goBytes(a rt.Addr) ([]byte, bool) {
	w, err := v.strWords(a)
	if err != nil {
		return nil, false
	}
	b := v.strScratch[:0]
	for _, c := range w {
		if c > unicode.MaxRune {
			c = utf8.RuneError
		}
		b = utf8.AppendRune(b, rune(c)) // one append for ASCII, inlined
	}
	v.strScratch = b
	return b, true
}

// MustGoString reads a String object, failing on null.
func (v *VM) MustGoString(a rt.Addr) (string, error) {
	s, ok := v.GoString(a)
	if !ok {
		return "", fmt.Errorf("vm: null String")
	}
	return s, nil
}

// isSpaceWord and lowerWord apply the unicode predicates to a char word;
// words outside the code-point range are opaque: never space, never cased.
func isSpaceWord(c uint64) bool {
	return c <= unicode.MaxRune && unicode.IsSpace(rune(c))
}

func lowerWord(c uint64) uint64 {
	if c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return c
	}
	if c > unicode.MaxRune {
		return c
	}
	return uint64(unicode.ToLower(rune(c)))
}

// trimBounds returns the [lo, hi) window of w left after dropping leading and
// trailing white space (strings.TrimSpace's definition).
func trimBounds(w []uint64) (lo, hi int) {
	hi = len(w)
	for lo < hi && isSpaceWord(w[lo]) {
		lo++
	}
	for hi > lo && isSpaceWord(w[hi-1]) {
		hi--
	}
	return lo, hi
}

// StringMixSrc is the string runtime's layer-benchmark guest program: what the
// webserver does to one request line of 40 characters — split it, find and
// cut the path, compare the method, test the extension, and build the response
// head with five concats. Ten String natives and ten guest allocations per 40
// instructions, no frames, an infinite loop. BenchmarkStringNatives here and
// the native row of `jvolve-bench -exp dispatch` both run this one copy.
const StringMixSrc = `
class Hot {
  static method main()V {
  loop:
    ldc "GET /docs/index.html HTTP/1.0 keep-alive"
    store 0
    load 0
    const 32
    invokevirtual String.split(C)[LString;
    store 1
    load 0
    const 32
    const 4
    invokevirtual String.indexOf(CI)I
    store 2
    load 0
    const 4
    load 2
    invokevirtual String.substring(II)LString;
    store 3
    load 1
    const 0
    aget
    checkcast String
    ldc "GET"
    invokevirtual String.equals(LString;)Z
    pop
    load 3
    ldc ".html"
    invokevirtual String.endsWith(LString;)Z
    pop
    ldc "HTTP/1.0 200 OK "
    load 3
    invokevirtual String.concat(LString;)LString;
    ldc " type="
    invokevirtual String.concat(LString;)LString;
    ldc "text/html"
    invokevirtual String.concat(LString;)LString;
    ldc " len="
    invokevirtual String.concat(LString;)LString;
    ldc "1024"
    invokevirtual String.concat(LString;)LString;
    pop
    goto loop
  }
}
`
