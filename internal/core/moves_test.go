package core_test

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// evoField is one field of a generated class across the two versions; an
// empty descriptor means the version does not have it.
type evoField struct{ name, d1, d2 string }

// evolution is one seeded v1→v2 pair over five classes:
//
//	Base     fields added, deleted, retyped and reordered; always gains one
//	Derived  extends Base (inherited fields shift under it), same mutations
//	Other    referenced by Base and Derived, itself updated
//	Zero     every field retyped, deleted or new: its default carries nothing
//	Gone     deleted in v2; fields that named it become LObject;
type evolution struct {
	classes map[string][]evoField // in v1 declaration order
	order2  map[string][]int      // v2 declaration order, as indexes into classes[c]
}

func newEvolution(rng *rand.Rand) *evolution {
	ev := &evolution{classes: map[string][]evoField{}, order2: map[string][]int{}}
	stable := []string{"I", "LOther;", "LBase;", "[I"}
	gen := func(class, prefix string, n int) {
		var fs []evoField
		for i := 0; i < n; i++ {
			f := evoField{name: fmt.Sprintf("%s%d", prefix, i)}
			switch d := stable[rng.Intn(len(stable))]; rng.Intn(6) {
			case 0, 1: // unchanged name and type: carried
				f.d1, f.d2 = d, d
			case 2: // added
				f.d2 = d
			case 3: // deleted
				f.d1 = d
			case 4: // retyped: not carried
				f.d1, f.d2 = "I", "[I"
				if rng.Intn(2) == 0 {
					f.d1, f.d2 = "LOther;", "I"
				}
			case 5: // its class is deleted: carried as an Object
				f.d1, f.d2 = "LGone;", "LObject;"
			}
			fs = append(fs, f)
		}
		fs = append(fs, evoField{name: prefix + "new", d2: "I"}) // always a class update
		ev.classes[class] = fs
		ev.order2[class] = rng.Perm(len(fs))
	}
	gen("Base", "b", 2+rng.Intn(5))
	gen("Derived", "d", 1+rng.Intn(4))
	gen("Other", "o", 1+rng.Intn(3))
	ev.classes["Zero"] = []evoField{{"a", "I", "[I"}, {"b", "LBase;", ""}, {"c", "", "I"}}
	ev.order2["Zero"] = []int{2, 0, 1}
	ev.classes["Gone"] = []evoField{{"k", "I", ""}}
	return ev
}

var evoClasses = []string{"Base", "Derived", "Other", "Zero", "Gone"}

func (ev *evolution) source(version int) string {
	var b strings.Builder
	for _, class := range evoClasses {
		if class == "Gone" && version == 2 {
			continue
		}
		fmt.Fprintf(&b, "class %s", class)
		if class == "Derived" {
			b.WriteString(" extends Base")
		}
		b.WriteString(" {\n")
		fs := ev.classes[class]
		for i := range fs {
			f, d := fs[i], fs[i].d1
			if version == 2 {
				f = fs[ev.order2[class][i]]
				d = f.d2
			}
			if d != "" {
				fmt.Fprintf(&b, "  field %s %s\n", f.name, d)
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// populate builds the same seeded graph in any VM loaded with v1: instances
// of all five classes under one pinned array, every int field a random value,
// every reference field null or a random instance of the field's class (a
// Derived may stand in for a Base), every [I field null or a small array.
func (ev *evolution) populate(t *testing.T, v *vm.VM, rng *rand.Rand) {
	t.Helper()
	h := v.Heap
	const perClass = 8
	inst := map[string][]rt.Addr{}
	arr, ok := h.AllocArray(true, perClass*len(evoClasses))
	if !ok {
		t.Fatal("root array")
	}
	pin := v.PushHandle(arr)
	for ci, class := range evoClasses {
		cls := v.Reg.LookupClass(class)
		for i := 0; i < perClass; i++ {
			a, ok := h.AllocObject(cls)
			if !ok {
				t.Fatal("heap too small")
			}
			inst[class] = append(inst[class], a)
			h.SetElem(pin.Ref(), ci*perClass+i, rt.RefVal(a))
		}
	}
	inst["Base"] = append(inst["Base"], inst["Derived"]...)
	for _, class := range evoClasses {
		cls := v.Reg.LookupClass(class)
		for _, a := range inst[class] {
			if h.ClassID(a) != cls.ID {
				continue // a Derived listed under Base: filled as a Derived
			}
			for _, slot := range cls.Fields {
				switch d := string(slot.Desc); {
				case d == "I":
					h.SetFieldValue(a, slot.Offset, rt.IntVal(rng.Int63n(1<<40)))
				case d == "[I":
					if rng.Intn(3) > 0 {
						ia, ok := h.AllocArray(false, 1+rng.Intn(3))
						if !ok {
							t.Fatal("heap too small")
						}
						h.SetElem(ia, 0, rt.IntVal(rng.Int63n(1<<20)))
						h.SetFieldValue(a, slot.Offset, rt.RefVal(ia))
					}
				default:
					if to := inst[slot.Desc.ClassName()]; rng.Intn(4) > 0 {
						h.SetFieldValue(a, slot.Offset, rt.RefVal(to[rng.Intn(len(to))]))
					}
				}
			}
		}
	}
}

// TestMovesMatchInterpreter is the differential test that the collector's
// moves equal the bytecode they replace. For each seeded evolution and each
// engine mode — every collector that can meet a moved class — the same
// update is applied twice to identically populated VMs — once as generated
// (every default is a move the collector performs), once with the same bodies
// made hand-written (pairs, interpreted) — and every reachable object must
// come out with the same class and the same field words, up to where it lives.
func TestMovesMatchInterpreter(t *testing.T) {
	modes := vm.Modes()
	for i := 0; i < 42*len(modes); i++ {
		seed, mode := int64(i/len(modes)), modes[i%len(modes)]
		ev := newEvolution(rand.New(rand.NewSource(seed)))
		run := func(handWritten bool) (*vm.VM, *core.Result) {
			v, err := vm.New(vm.Options{
				HeapWords: 1 << 14, Out: io.Discard, Concurrent: mode.Concurrent,
			})
			if err != nil {
				t.Fatal(err)
			}
			v1, err1 := asm.AssembleProgram("v1.jva", ev.source(1))
			v2, err2 := asm.AssembleProgram("v2.jva", ev.source(2))
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v / %v\n%s", seed, err1, err2, ev.source(2))
			}
			if err := v.LoadProgram(v1); err != nil {
				t.Fatal(err)
			}
			ev.populate(t, v, rand.New(rand.NewSource(seed+1000)))
			spec, err := upt.Prepare("1", v1, v2)
			if err != nil {
				t.Fatalf("seed %d: prepare: %v", seed, err)
			}
			for _, class := range spec.ClassUpdates {
				if _, ok := spec.ObjectMoves(class); !ok {
					t.Fatalf("seed %d: generated transformer of %s is not a move", seed, class)
				}
			}
			if handWritten {
				handWrite(spec)
			}
			e := core.NewEngine(v)
			res, err := e.ApplyNow(spec, core.Options{})
			if err != nil || res.Outcome != core.Applied {
				t.Fatalf("seed %d %s handWritten=%v: %v / %+v", seed, mode.Name, handWritten, err, res)
			}
			if err := e.ForceDrain(); err != nil {
				t.Fatal(err)
			}
			if err := storm.CheckVM(v); err != nil {
				t.Fatalf("seed %d %s handWritten=%v: %v", seed, mode.Name, handWritten, err)
			}
			return v, res
		}
		mv, mres := run(false)
		iv, ires := run(true)

		const updated = 8 * 4 // Base, Derived, Other, Zero; Gone is deleted, not updated
		ms, is := mres.Stats, ires.Stats
		if ms.MovedObjects != updated || ms.PairsLogged != 0 || ms.TransformedObjects != updated {
			t.Fatalf("seed %d %s: moved run: %d moved, %d pairs, %d transformed; want %d, 0, %d",
				seed, mode.Name, ms.MovedObjects, ms.PairsLogged, ms.TransformedObjects, updated, updated)
		}
		if is.MovedObjects != 0 || is.PairsLogged != updated || is.TransformedObjects != updated {
			t.Fatalf("seed %d %s: hand-written run: %d moved, %d pairs, %d transformed; want 0, %d, %d",
				seed, mode.Name, is.MovedObjects, is.PairsLogged, is.TransformedObjects, updated, updated)
		}
		if err := sameHeaps(mv, iv); err != nil {
			t.Fatalf("seed %d %s: moved vs interpreted: %v\nv2:\n%s", seed, mode.Name, err, ev.source(2))
		}
	}
}

// sameHeaps walks two VMs' reachable graphs in lockstep from their handles
// and reports the first difference: kind, class, a non-reference word, the
// null-ness of a reference, or sharing (the address pairing must be a
// bijection).
func sameHeaps(va, vb *vm.VM) error {
	ha, hb := va.Heap, vb.Heap
	aToB, bToA := map[rt.Addr]rt.Addr{}, map[rt.Addr]rt.Addr{}
	var walk func(a, b rt.Addr, path string) error
	walk = func(a, b rt.Addr, path string) error {
		if (a == rt.Null) != (b == rt.Null) {
			return fmt.Errorf("%s: null on one side only (@%d / @%d)", path, a, b)
		}
		if a == rt.Null {
			return nil
		}
		if prev, ok := aToB[a]; ok {
			if prev != b {
				return fmt.Errorf("%s: sharing differs", path)
			}
			return nil
		}
		if _, ok := bToA[b]; ok {
			return fmt.Errorf("%s: sharing differs", path)
		}
		aToB[a], bToA[b] = b, a
		if ha.IsArray(a) != hb.IsArray(b) {
			return fmt.Errorf("%s: array on one side only", path)
		}
		if ha.IsArray(a) {
			if ha.ArrayLen(a) != hb.ArrayLen(b) || ha.ArrayElemIsRef(a) != hb.ArrayElemIsRef(b) {
				return fmt.Errorf("%s: array shapes differ", path)
			}
			for i := 0; i < ha.ArrayLen(a); i++ {
				ea, eb := ha.Elem(a, i), hb.Elem(b, i)
				if !ha.ArrayElemIsRef(a) {
					if ea.Bits != eb.Bits {
						return fmt.Errorf("%s[%d]: %d vs %d", path, i, ea.Bits, eb.Bits)
					}
				} else if err := walk(ea.Ref(), eb.Ref(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
			return nil
		}
		ca, cb := va.Reg.ClassByID(ha.ClassID(a)), vb.Reg.ClassByID(hb.ClassID(b))
		if ca == nil || cb == nil || ca.Name != cb.Name || ca.Size != cb.Size {
			return fmt.Errorf("%s: classes differ: %v vs %v", path, ca, cb)
		}
		if ha.PairWord(a) != 0 || hb.PairWord(b) != 0 {
			return fmt.Errorf("%s: pair word left behind (%d / %d)", path, ha.PairWord(a), hb.PairWord(b))
		}
		for _, slot := range ca.Fields {
			fa := ha.FieldValue(a, slot.Offset, slot.Desc.IsRef())
			fb := hb.FieldValue(b, slot.Offset, slot.Desc.IsRef())
			where := path + "." + slot.Name
			if !slot.Desc.IsRef() {
				if fa.Bits != fb.Bits {
					return fmt.Errorf("%s (%s): %d vs %d", where, ca.Name, fa.Bits, fb.Bits)
				}
			} else if err := walk(fa.Ref(), fb.Ref(), where); err != nil {
				return err
			}
		}
		return nil
	}
	var ra, rb []rt.Addr
	refRoot := func(to *[]rt.Addr) func(*rt.Value) {
		return func(v *rt.Value) {
			if v.IsRef {
				*to = append(*to, v.Ref())
			}
		}
	}
	va.ForEachRoot(refRoot(&ra))
	vb.ForEachRoot(refRoot(&rb))
	if len(ra) == 0 {
		return fmt.Errorf("no reference roots: nothing compared")
	}
	if len(ra) != len(rb) {
		return fmt.Errorf("%d roots vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if err := walk(ra[i], rb[i], fmt.Sprintf("root%d", i)); err != nil {
			return err
		}
	}
	return nil
}
