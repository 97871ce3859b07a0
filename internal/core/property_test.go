package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// TestDefaultTransformerProperty generates random pairs of class versions —
// random subsets of a field pool, some fields changing type between
// versions — populates an instance with known values, applies the update
// with UPT's generated default transformer, and checks the paper's default
// semantics field by field: unchanged name+type ⇒ value preserved; added
// or retyped ⇒ zero. Runs both ways a default can execute: moved by the
// collector, and — made hand-written — interpreted over pairs.
func TestDefaultTransformerProperty(t *testing.T) {
	type fieldSpec struct {
		name string
		// descV1/descV2: "" = absent in that version, else "I" or "[I".
		descV1, descV2 string
	}
	pool := []string{"fa", "fb", "fc", "fd", "fe", "ff", "fg", "fh"}

	build := func(specs []fieldSpec, version int) string {
		var b strings.Builder
		b.WriteString("class Thing {\n")
		for _, fs := range specs {
			d := fs.descV1
			if version == 2 {
				d = fs.descV2
			}
			if d != "" {
				fmt.Fprintf(&b, "  field %s %s\n", fs.name, d)
			}
		}
		b.WriteString(`  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Holder {
  static field it LThing;
  static method main()V {
    new Thing
    dup
    invokespecial Thing.<init>()V
    putstatic Holder.it LThing;
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    return
  }
}
`)
		return b.String()
	}

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var specs []fieldSpec
		for _, name := range pool {
			fs := fieldSpec{name: name}
			switch rng.Intn(4) {
			case 0: // stable int field
				fs.descV1, fs.descV2 = "I", "I"
			case 1: // added in v2
				fs.descV2 = "I"
			case 2: // deleted in v2
				fs.descV1 = "I"
			case 3: // type change I -> [I
				fs.descV1, fs.descV2 = "I", "[I"
			}
			if fs.descV1 != "" || fs.descV2 != "" {
				specs = append(specs, fs)
			}
		}
		if len(specs) == 0 {
			return true
		}
		fast := rng.Intn(2) == 1

		var out bytes.Buffer
		machine, err := vm.New(vm.Options{HeapWords: 1 << 16, Out: &out})
		if err != nil {
			return false
		}
		f := &fixture{t: t, vm: machine, out: &out, engine: core.NewEngine(machine)}
		v1 := f.prog(build(specs, 1))
		v2 := f.prog(build(specs, 2))
		if err := machine.LoadProgram(v1); err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		f.spawn("Holder")
		machine.Step(2)

		// Poke known values into the v1 instance via the registry.
		thing := machine.Reg.LookupClass("Thing")
		holder := machine.Reg.LookupClass("Holder")
		addr := machine.Reg.JTOC[holder.StaticField("it").Slot].Ref()
		wantVals := map[string]int64{}
		for i, fs := range specs {
			if fs.descV1 != "I" {
				continue
			}
			val := int64(1000 + i)
			machine.Heap.SetFieldValue(addr, thing.Field(fs.name).Offset, rt.IntVal(val))
			wantVals[fs.name] = val
		}

		spec, err := upt.Prepare("1", v1, v2)
		if err != nil {
			t.Logf("seed %d: prepare: %v", seed, err)
			return false
		}
		if !fast {
			handWrite(spec)
		}
		res, err := f.engine.ApplyNow(spec, core.Options{})
		if err != nil || res.Outcome != core.Applied {
			t.Logf("seed %d: apply: %v / %v", seed, err, res)
			return false
		}
		if (res.Stats.MovedObjects == 1) != fast || res.Stats.TransformedObjects != 1 {
			t.Logf("seed %d fast=%v: %d moved of %d transformed", seed, fast, res.Stats.MovedObjects, res.Stats.TransformedObjects)
			return false
		}

		newThing := machine.Reg.LookupClass("Thing")
		newAddr := machine.Reg.JTOC[machine.Reg.LookupClass("Holder").StaticField("it").Slot].Ref()
		for _, fs := range specs {
			if fs.descV2 == "" {
				continue
			}
			slot := newThing.Field(fs.name)
			if slot == nil {
				t.Logf("seed %d: field %s missing after update", seed, fs.name)
				return false
			}
			got := machine.Heap.FieldValue(newAddr, slot.Offset, slot.Desc.IsRef())
			switch {
			case fs.descV1 == "I" && fs.descV2 == "I":
				if got.Int() != wantVals[fs.name] {
					t.Logf("seed %d fast=%v: %s = %d, want %d", seed, fast, fs.name, got.Int(), wantVals[fs.name])
					return false
				}
			default: // added or retyped: default value
				if got.Bits != 0 {
					t.Logf("seed %d fast=%v: %s = %v, want zero", seed, fast, fs.name, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
