package rt

import (
	"slices"
	"testing"

	"govolve/internal/classfile"
)

func load(t *testing.T, reg *Registry, src *classfile.Class) *Class {
	t.Helper()
	c, err := reg.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildHierarchy(t *testing.T) (*Registry, *Class, *Class, *Class) {
	t.Helper()
	reg := NewRegistry()
	obj := load(t, reg, classfile.NewClass("Object", "").
		Method("<init>", "()V").Ret().Done().MustBuild())
	animal := load(t, reg, classfile.NewClass("Animal", "Object").
		Field("legs", "I").
		StaticField("count", "I").
		Method("speak", "()I").Const(0).Ret().Done().
		Method("walk", "()I").Const(1).Ret().Done().
		MustBuild())
	dog := load(t, reg, classfile.NewClass("Dog", "Animal").
		Field("tricks", "I").
		Method("speak", "()I").Const(2).Ret().Done(). // override
		Method("fetch", "()I").Const(3).Ret().Done(). // new virtual
		MustBuild())
	return reg, obj, animal, dog
}

func TestFieldLayoutInheritance(t *testing.T) {
	_, _, animal, dog := buildHierarchy(t)
	if animal.Size != HeaderWords+1 {
		t.Fatalf("animal size = %d", animal.Size)
	}
	if dog.Size != HeaderWords+2 {
		t.Fatalf("dog size = %d", dog.Size)
	}
	// Inherited field keeps its offset.
	if animal.Field("legs").Offset != dog.Field("legs").Offset {
		t.Fatal("inherited field offset shifted")
	}
	if dog.Field("tricks").Offset != HeaderWords+1 {
		t.Fatalf("tricks offset = %d", dog.Field("tricks").Offset)
	}
}

// TestScanDescriptor: RefOffsets lists the reference fields' word offsets,
// inherited ones first — what every collector iterates instead of RefMap.
func TestScanDescriptor(t *testing.T) {
	reg := NewRegistry()
	base := load(t, reg, classfile.NewClass("Base", "").
		Field("n", "I").Field("next", "LBase;").MustBuild())
	sub := load(t, reg, classfile.NewClass("Sub", "Base").
		Field("m", "I").Field("a", "LBase;").Field("b", "LSub;").MustBuild())
	for _, tc := range []struct {
		cls  *Class
		want []Addr
	}{
		{base, []Addr{HeaderWords + 1}},
		{sub, []Addr{HeaderWords + 1, HeaderWords + 3, HeaderWords + 4}},
	} {
		if !slices.Equal(tc.cls.RefOffsets, tc.want) {
			t.Errorf("%s: RefOffsets = %v, want %v (RefMap %v)", tc.cls.Name, tc.cls.RefOffsets, tc.want, tc.cls.RefMap)
		}
	}
}

func TestTIBConstruction(t *testing.T) {
	_, obj, animal, dog := buildHierarchy(t)
	if len(obj.TIB) != 0 {
		// Object's <init> is a constructor: direct dispatch, no slot.
		t.Fatalf("Object TIB size = %d", len(obj.TIB))
	}
	speakSlot := animal.VSlot("speak", "()I")
	walkSlot := animal.VSlot("walk", "()I")
	if speakSlot < 0 || walkSlot < 0 || speakSlot == walkSlot {
		t.Fatalf("bad slots: speak=%d walk=%d", speakSlot, walkSlot)
	}
	// Dog overrides speak in the same slot and extends the table.
	if dog.VSlot("speak", "()I") != speakSlot {
		t.Fatal("override changed slot")
	}
	if dog.TIB[speakSlot].Class != dog {
		t.Fatal("dog TIB speak entry not overridden")
	}
	if dog.TIB[walkSlot].Class != animal {
		t.Fatal("dog TIB walk entry should be inherited")
	}
	if dog.VSlot("fetch", "()I") != len(animal.TIB) {
		t.Fatal("new virtual method should extend the table")
	}
}

func TestMethodResolutionWalksChain(t *testing.T) {
	_, _, animal, dog := buildHierarchy(t)
	if m := dog.Method("walk", "()I"); m == nil || m.Class != animal {
		t.Fatal("inherited method resolution broken")
	}
	if m := dog.Method("speak", "()I"); m == nil || m.Class != dog {
		t.Fatal("override resolution broken")
	}
	if dog.Method("nothing", "()V") != nil {
		t.Fatal("phantom method resolved")
	}
}

func TestStaticsGetJTOCSlots(t *testing.T) {
	reg, _, animal, dog := buildHierarchy(t)
	s := animal.StaticField("count")
	if s == nil {
		t.Fatal("static missing")
	}
	if s.Slot < 0 || s.Slot >= len(reg.JTOC) {
		t.Fatalf("slot %d outside JTOC", s.Slot)
	}
	// Statics are resolvable through subclasses.
	if dog.StaticField("count") != s {
		t.Fatal("static not inherited")
	}
}

func TestSubclassTracking(t *testing.T) {
	reg, _, animal, dog := buildHierarchy(t)
	if len(animal.Subclasses) != 1 || animal.Subclasses[0] != dog {
		t.Fatalf("subclasses = %v", animal.Subclasses)
	}
	reg.DetachSubclass(dog)
	if len(animal.Subclasses) != 0 {
		t.Fatal("detach failed")
	}
	if !dog.IsSubclassOf(animal) {
		t.Fatal("IsSubclassOf broken")
	}
}

func TestRenameClass(t *testing.T) {
	reg, _, animal, _ := buildHierarchy(t)
	flat := classfile.NewClass("ignored", "Object").Field("legs", "I").MustBuild()
	if err := reg.RenameClass(animal, "v1_Animal", flat); err != nil {
		t.Fatal(err)
	}
	if reg.LookupClass("Animal") != nil {
		t.Fatal("old name still resolves")
	}
	got := reg.LookupClass("v1_Animal")
	if got != animal || !got.Renamed {
		t.Fatal("rename lost class")
	}
	// Layout survives; methods are stripped from the definition.
	if got.Field("legs") == nil {
		t.Fatal("layout lost")
	}
	if len(got.Def.Methods) != 0 {
		t.Fatal("definition kept methods")
	}
	if got.Method("speak", "()I") != nil {
		t.Fatal("methods still resolvable on renamed class")
	}
	// The name is free for a new version.
	newAnimal := load(t, reg, classfile.NewClass("Animal", "Object").
		Field("legs", "I").Field("wings", "I").MustBuild())
	if newAnimal.ID == animal.ID {
		t.Fatal("new version got recycled ID")
	}
	// Rename onto a taken name fails.
	if err := reg.RenameClass(newAnimal, "v1_Animal", nil); err == nil {
		t.Fatal("rename clash accepted")
	}
}

func TestSuperFirstOrdering(t *testing.T) {
	p, err := classfile.NewProgram(
		classfile.NewClass("C", "B").MustBuild(),
		classfile.NewClass("B", "A").MustBuild(),
		classfile.NewClass("A", "External").MustBuild(),
	)
	if err != nil {
		t.Fatal(err)
	}
	order, err := SuperFirst(p)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, def := range order {
		pos[def.Name] = i
	}
	if !(pos["A"] < pos["B"] && pos["B"] < pos["C"]) {
		t.Fatalf("order wrong: %v", pos)
	}
	// Cycle detection.
	pc, _ := classfile.NewProgram(
		classfile.NewClass("X", "Y").MustBuild(),
		classfile.NewClass("Y", "X").MustBuild(),
	)
	if _, err := SuperFirst(pc); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestInternTable(t *testing.T) {
	reg := NewRegistry()
	a := reg.InternIndex("hello")
	b := reg.InternIndex("world")
	if a == b {
		t.Fatal("distinct literals share index")
	}
	if reg.InternIndex("hello") != a {
		t.Fatal("intern not stable")
	}
	if reg.InternLits[a] != "hello" || !reg.InternRoots[a].IsRef {
		t.Fatal("intern bookkeeping wrong")
	}
}

func TestDuplicateLoadRejected(t *testing.T) {
	reg, _, _, _ := buildHierarchy(t)
	if _, err := reg.Load(classfile.NewClass("Animal", "Object").MustBuild()); err == nil {
		t.Fatal("duplicate class load accepted")
	}
	if _, err := reg.Load(classfile.NewClass("Orphan", "Nowhere").MustBuild()); err == nil {
		t.Fatal("load with unknown super accepted")
	}
}
