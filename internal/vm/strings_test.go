package vm

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"govolve/internal/rt"
)

// The differential test calls the String natives directly, through the same
// bindings invoke reaches, and compares each against the Go standard library
// on the Go-string view of the operands. The heap is large enough that no
// collection runs (checked at the end), so operands may sit in plain Go
// slices; natives under collection are native_gc_test.go's business.

// strCorpus covers ASCII, BMP and astral code points, white space of every
// kind strings.TrimSpace knows, case pairs outside ASCII, digits and
// separators.
var strCorpus = []string{
	"",
	"a",
	"abc",
	"ABC def",
	"GET /docs/index.html HTTP/1.0 keep-alive",
	"  padded\t\n",
	"\u00a0nbsp\u2003em\u3000\u0085",
	"héllo wörld",
	"ΑΒΓ δεζ",
	"İSTANBUL ǅ Ǆ",
	"日本語テキスト",
	"a😀b𝔘c",
	"😀",
	"-123",
	"  42  ",
	"12abc",
	"-",
	"a,b,,c",
	",",
	",,a",
	"日,本,語",
	"😀,😀",
}

type strVM struct {
	t *testing.T
	v *VM
}

func newStrVM(t *testing.T) strVM {
	v, _ := newTestVM(t, 1<<20)
	return strVM{t, v}
}

func (s strVM) str(x string) rt.Value {
	a, err := s.v.NewString(x)
	if err != nil {
		s.t.Fatal(err)
	}
	return rt.RefVal(a)
}

// call runs String.<nameSig> on args and returns the result and the error
// text ("" for success).
func (s strVM) call(nameSig string, args ...rt.Value) (rt.Value, string) {
	s.t.Helper()
	b := s.v.natives["String."+nameSig]
	if b == nil {
		s.t.Fatalf("String.%s is not bound", nameSig)
	}
	ret, wake, err := b.fn(s.v, nil, args)
	if wake != nil {
		s.t.Fatalf("String.%s blocked", nameSig)
	}
	if err != nil {
		return rt.Value{}, err.Error()
	}
	return ret, ""
}

func (s strVM) goStr(v rt.Value) string {
	s.t.Helper()
	x, ok := s.v.GoString(v.Ref())
	if !ok {
		s.t.Fatal("native returned a null String")
	}
	return x
}

func refToInt(s string) int64 {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var n int64
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int64(r-'0')
	}
	if neg {
		n = -n
	}
	return n
}

func TestStringNativesAgainstGo(t *testing.T) {
	s := newStrVM(t)
	for _, x := range strCorpus {
		r := []rune(x)
		n := int64(len(r))
		recv := s.str(x)

		if got, _ := s.call("length()I", recv); got.Int() != n {
			t.Errorf("%q.length() = %d, want %d", x, got.Int(), n)
		}
		if got := s.goStr(recv); got != x {
			t.Errorf("GoString(NewString(%q)) = %q", x, got)
		}
		var h int64
		for _, c := range r {
			h = h*31 + int64(c)
		}
		if got, _ := s.call("hashCode()I", recv); got.Int() != h {
			t.Errorf("%q.hashCode() = %d, want %d", x, got.Int(), h)
		}
		if got, _ := s.call("toInt()I", recv); got.Int() != refToInt(x) {
			t.Errorf("%q.toInt() = %d, want %d", x, got.Int(), refToInt(x))
		}
		if got, _ := s.call("trim()LString;", recv); s.goStr(got) != strings.TrimSpace(x) {
			t.Errorf("%q.trim() = %q, want %q", x, s.goStr(got), strings.TrimSpace(x))
		}
		if got, _ := s.call("toLowerCase()LString;", recv); s.goStr(got) != strings.ToLower(x) {
			t.Errorf("%q.toLowerCase() = %q, want %q", x, s.goStr(got), strings.ToLower(x))
		}

		for i := int64(-1); i <= n; i++ {
			got, errText := s.call("charAt(I)C", recv, rt.IntVal(i))
			if i < 0 || i >= n {
				if want := fmt.Sprintf("String.charAt(%d) out of range (len %d)", i, n); errText != want {
					t.Errorf("%q.charAt(%d) error = %q, want %q", x, i, errText, want)
				}
			} else if errText != "" || got.Int() != int64(r[i]) {
				t.Errorf("%q.charAt(%d) = %d (%s), want %d", x, i, got.Int(), errText, r[i])
			}
		}
		for from := int64(-1); from <= n+1; from++ {
			for to := int64(-1); to <= n+1; to++ {
				got, errText := s.call("substring(II)LString;", recv, rt.IntVal(from), rt.IntVal(to))
				if from < 0 || to > n || from > to {
					if want := fmt.Sprintf("String.substring(%d,%d) out of range (len %d)", from, to, n); errText != want {
						t.Errorf("%q.substring(%d,%d) error = %q, want %q", x, from, to, errText, want)
					}
				} else if errText != "" || s.goStr(got) != string(r[from:to]) {
					t.Errorf("%q.substring(%d,%d) = %q (%s), want %q", x, from, to, s.goStr(got), errText, string(r[from:to]))
				}
			}
		}
		for _, ch := range append([]rune{',', 'a', ' ', '😀', '語', 0}, r...) {
			for from := int64(-2); from <= n+1; from++ {
				want := int64(-1)
				for i := max(from, 0); i < n; i++ {
					if r[i] == ch {
						want = i
						break
					}
				}
				if got, _ := s.call("indexOf(CI)I", recv, rt.IntVal(int64(ch)), rt.IntVal(from)); got.Int() != want {
					t.Errorf("%q.indexOf(%q,%d) = %d, want %d", x, ch, from, got.Int(), want)
				}
			}
			parts := strings.Split(x, string(ch))
			got, errText := s.call("split(C)[LString;", recv, rt.IntVal(int64(ch)))
			if errText != "" {
				t.Fatalf("%q.split(%q): %s", x, ch, errText)
			}
			arr := got.Ref()
			if !s.v.Heap.ArrayElemIsRef(arr) || s.v.Heap.ArrayLen(arr) != len(parts) {
				t.Errorf("%q.split(%q) has %d parts, want %d", x, ch, s.v.Heap.ArrayLen(arr), len(parts))
				continue
			}
			for i, p := range parts {
				if e := s.goStr(s.v.Heap.Elem(arr, i)); e != p {
					t.Errorf("%q.split(%q)[%d] = %q, want %q", x, ch, i, e, p)
				}
			}
		}

		for _, y := range strCorpus {
			arg := s.str(y)
			if got, _ := s.call("equals(LString;)Z", recv, arg); (got.Int() != 0) != (x == y) {
				t.Errorf("%q.equals(%q) = %d", x, y, got.Int())
			}
			if got, _ := s.call("startsWith(LString;)Z", recv, arg); (got.Int() != 0) != strings.HasPrefix(x, y) {
				t.Errorf("%q.startsWith(%q) = %d", x, y, got.Int())
			}
			if got, _ := s.call("endsWith(LString;)Z", recv, arg); (got.Int() != 0) != strings.HasSuffix(x, y) {
				t.Errorf("%q.endsWith(%q) = %d", x, y, got.Int())
			}
			if got, errText := s.call("concat(LString;)LString;", recv, arg); errText != "" || s.goStr(got) != x+y {
				t.Errorf("%q.concat(%q) = %q (%s)", x, y, s.goStr(got), errText)
			}
		}
	}
	for _, n := range []int64{0, 7, -1, 1234567890, -9223372036854775808, 9223372036854775807} {
		if got, _ := s.call("fromInt(I)LString;", rt.IntVal(n)); s.goStr(got) != strconv.FormatInt(n, 10) {
			t.Errorf("String.fromInt(%d) = %q", n, s.goStr(got))
		}
	}
	if s.v.GC.Collections != 0 {
		t.Fatalf("%d collections ran: operands held outside root slots were invalidated, enlarge the heap", s.v.GC.Collections)
	}
}

// TestStringNativesNull pins the error text of a null receiver on every
// instance native and of a null argument on those that take a String:
// equals(null) is false, the rest fail exactly like a null receiver.
func TestStringNativesNull(t *testing.T) {
	s := newStrVM(t)
	one, abc := rt.IntVal(1), s.str("abc")
	for nameSig, extra := range map[string][]rt.Value{
		"length()I":                nil,
		"charAt(I)C":               {one},
		"equals(LString;)Z":        {abc},
		"concat(LString;)LString;": {abc},
		"substring(II)LString;":    {one, one},
		"indexOf(CI)I":             {one, one},
		"startsWith(LString;)Z":    {abc},
		"endsWith(LString;)Z":      {abc},
		"trim()LString;":           nil,
		"toLowerCase()LString;":    nil,
		"hashCode()I":              nil,
		"toInt()I":                 nil,
		"split(C)[LString;":        {one},
	} {
		if _, errText := s.call(nameSig, append([]rt.Value{rt.NullVal}, extra...)...); errText != "null String receiver" {
			t.Errorf("null.%s error = %q, want %q", nameSig, errText, "null String receiver")
		}
	}
	if got, errText := s.call("equals(LString;)Z", abc, rt.NullVal); errText != "" || got.Int() != 0 {
		t.Errorf(`"abc".equals(null) = %d (%s), want false`, got.Int(), errText)
	}
	for _, nameSig := range []string{"concat(LString;)LString;", "startsWith(LString;)Z", "endsWith(LString;)Z"} {
		if _, errText := s.call(nameSig, abc, rt.NullVal); errText != "null String receiver" {
			t.Errorf(`"abc".%s with null error = %q, want %q`, nameSig, errText, "null String receiver")
		}
	}
	// A guest `new String` — a plain two-word object — reads as "".
	blank, err := s.v.allocObject(s.v.strCls)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.call("length()I", rt.RefVal(blank)); got.Int() != 0 {
		t.Errorf("blank String length = %d", got.Int())
	}
	if got, errText := s.call("concat(LString;)LString;", rt.RefVal(blank), abc); errText != "" || s.goStr(got) != "abc" {
		t.Errorf("blank.concat(abc) = %q (%s)", s.goStr(got), errText)
	}
}

// TestStringWordsAreOpaqueInPlace pins what happens to char words that are
// not Unicode scalar values (a surrogate, a value past U+10FFFF). No native
// creates one, but a String's words are data, not text, until they cross into
// Go: in place they are compared, hashed, copied and returned as they are;
// only GoString maps them to U+FFFD.
func TestStringWordsAreOpaqueInPlace(t *testing.T) {
	s := newStrVM(t)
	odd := s.str("AxyB")
	w := s.v.Heap.ElemWords(odd.Ref())
	w[1], w[2] = 0xD800, 0x110000

	if got := s.goStr(odd); got != "A\uFFFD\uFFFDB" {
		t.Errorf("GoString = %q, want %q", got, "A\uFFFD\uFFFDB")
	}
	if got, _ := s.call("length()I", odd); got.Int() != 4 {
		t.Errorf("length = %d, want 4", got.Int())
	}
	if got, _ := s.call("charAt(I)C", odd, rt.IntVal(1)); got.Int() != 0xD800 {
		t.Errorf("charAt(1) = %#x, want the word itself (0xd800)", got.Int())
	}
	if got, _ := s.call("indexOf(CI)I", odd, rt.IntVal(0x110000), rt.IntVal(0)); got.Int() != 2 {
		t.Errorf("indexOf(0x110000) = %d, want 2", got.Int())
	}
	if got, _ := s.call("equals(LString;)Z", odd, s.str("A\uFFFD\uFFFDB")); got.Int() != 0 {
		t.Error("a surrogate word equals U+FFFD in place")
	}
	if got, _ := s.call("hashCode()I", odd); got.Int() != ((('A'*31+0xD800)*31+0x110000)*31 + 'B') {
		t.Errorf("hashCode = %d: not computed over the words", got.Int())
	}
	lower, _ := s.call("toLowerCase()LString;", odd)
	lw := s.v.Heap.ElemWords(lower.Ref())
	if len(lw) != 4 || lw[0] != 'a' || lw[1] != 0xD800 || lw[2] != 0x110000 || lw[3] != 'b' {
		t.Errorf("toLowerCase words = %#x", lw)
	}
	parts, _ := s.call("split(C)[LString;", odd, rt.IntVal(0xD800))
	if n := s.v.Heap.ArrayLen(parts.Ref()); n != 2 {
		t.Errorf("split on the surrogate word gave %d parts, want 2", n)
	}
	// Invalid UTF-8 entering from Go decodes to U+FFFD per byte, as []rune does.
	bad := "a\xffb\xc0"
	if got, want := s.goStr(s.str(bad)), string([]rune(bad)); got != want || utf8.RuneCountInString(bad) != 4 {
		t.Errorf("NewString(%q) reads back %q, want %q", bad, got, want)
	}
}
