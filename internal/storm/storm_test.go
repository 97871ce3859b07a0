package storm

import (
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/obs"
	"govolve/internal/vm"
	"govolve/internal/vm/vmtest"
)

// TestStormShort is the bounded tier-1 configuration: three seeds, ~70
// applied updates each (>=200 total), every invariant checked after every
// update. This is the harness's acceptance floor; the soak configuration
// lives behind `jvolve-bench -exp storm`.
func TestStormShort(t *testing.T) {
	const perSeed = 70
	total := 0
	for _, seed := range []int64{1, 2, 3} {
		rep, err := Run(Config{Seed: seed, Updates: perSeed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Applied < perSeed {
			t.Fatalf("seed %d: applied only %d/%d updates", seed, rep.Applied, perSeed)
		}
		if rep.Checks < rep.Applied {
			t.Fatalf("seed %d: %d checks for %d applied updates — checker not running per update",
				seed, rep.Checks, rep.Applied)
		}
		if rep.Probes == 0 {
			t.Fatalf("seed %d: no bytecode probes executed", seed)
		}
		total += rep.Applied
		t.Logf("seed %d: applied=%d aborted=%d rejected=%d checks=%d probes=%d steps=%d",
			seed, rep.Applied, rep.Aborted, rep.Rejected, rep.Checks, rep.Probes, rep.Steps)
	}
	if total < 200 {
		t.Fatalf("only %d total updates applied, want >= 200", total)
	}
}

// TestStormConfigs exercises the defaults and the orthogonal engine option,
// opt-tier OSR, then every engine mode. Each must satisfy the same invariants —
// over releases that ship about half their transformers hand-written (pairs,
// interpreted) and leave the rest to the collector (moves).
func TestStormConfigs(t *testing.T) {
	type namedConfig struct {
		name string
		cfg  Config
	}
	cfgs := []namedConfig{
		{"defaults", Config{Seed: 22, Updates: 25}},
		{"osropt", Config{Seed: 23, Updates: 25, OSROpt: true}},
	}
	// concurrent: every update resolves with tagged objects behind the armed
	// read barrier and from-space still live behind the self-healing load
	// barrier; AfterUpdate's CheckVM and the shadow oracle ride the barriers
	// mid-drain, the probe pass transforms specimens through real bytecode,
	// ForceDrain retires the residue before the raw oracle reads, and the
	// drain races real mutator traffic through the following era —
	// everything is out of the pause at once, pair creation itself deferred
	// behind the read barrier. concurrent+lazy, the name that composition
	// had while on-touch transformation was a mode of its own, is a second
	// seed of the concurrent mode.
	seeds := map[string]int64{"concurrent": 35}
	for _, m := range vm.Modes() {
		if seed, ok := seeds[m.Name]; ok { // serial is the two rows above
			cfgs = append(cfgs, namedConfig{m.Name, Config{Seed: seed, Updates: 25, Concurrent: m.Concurrent}})
		}
	}
	cfgs = append(cfgs, namedConfig{"concurrent+lazy", Config{Seed: 37, Updates: 25, Concurrent: true}})
	for _, tc := range cfgs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("%v", err)
			}
			if rep.Applied < tc.cfg.Updates {
				t.Fatalf("applied only %d/%d updates", rep.Applied, tc.cfg.Updates)
			}
		})
	}
}

// TestStormCatchesInjectedTransformerBug proves the oracle has teeth: with
// a deliberately broken (empty-bodied) default object transformer injected
// into each update, the shadow-model cross-check must fail, and the
// failure message must carry the reproducing seed.
func TestStormCatchesInjectedTransformerBug(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rep, err := Run(Config{Seed: seed, Updates: 30, InjectTransformerBug: true})
		if err == nil {
			t.Fatalf("seed %d: injected transformer bug escaped the checker (report %+v)", seed, rep)
		}
		if !strings.Contains(err.Error(), "seed=") {
			t.Fatalf("seed %d: failure message lacks reproducing seed: %v", seed, err)
		}
		// The report embeds the flight-recorder tail: the DSU activity
		// (phase spans, transformer events) leading up to the violation.
		if !strings.Contains(err.Error(), "flight recorder (last ") {
			t.Fatalf("seed %d: failure message lacks flight-recorder tail: %v", seed, err)
		}
		if !strings.Contains(err.Error(), "transformer-applied") &&
			!strings.Contains(err.Error(), "phase-") {
			t.Fatalf("seed %d: flight-recorder tail carries no DSU events: %v", seed, err)
		}
		t.Logf("seed %d caught: %v", seed, err)
	}
}

// TestStormCatchesStalePairWord gives the word-1 invariant the same teeth: a
// pair word left behind after the residue retired (serial) or on an object the
// pair log does not hold (mid-drain, concurrent) fails the heap walk at the
// next check, with the reproducing seed.
func TestStormCatchesStalePairWord(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		rep, err := Run(Config{Seed: 3, Updates: 10, Concurrent: concurrent, InjectStalePairWord: true})
		if err == nil {
			t.Fatalf("concurrent=%v: stale pair word escaped the checker (report %+v)", concurrent, rep)
		}
		if !strings.Contains(err.Error(), "seed=3") || !strings.Contains(err.Error(), "pair word") {
			t.Fatalf("concurrent=%v: failure lacks the reproducing seed or the violated invariant: %v", concurrent, err)
		}
	}
}

// TestStormDeterministic re-runs the same seed in every engine mode and
// requires identical reports — the reproducibility contract behind printing
// the seed on failure.
func TestStormDeterministic(t *testing.T) {
	for _, m := range vm.Modes() {
		cfg := Config{Seed: 7, Updates: 20, Concurrent: m.Concurrent}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Fatalf("mode %s: same seed, different runs:\n  a=%+v\n  b=%+v", m.Name, *a, *b)
		}
	}
}

// TestStormRelocEagerEquivalent runs the same seeds in the serial and the
// concurrent mode. The shadow oracle validates every field value, static,
// array and probe after each update — mid-drain, riding the load barrier,
// after the probes transformed what they touched and a forced drain the rest
// — so both passing proves the drained heap converges to the same state
// object-by-object; the drive sequence consumes rng and scheduler steps
// identically (probes and forced drains run on synchronous threads), so
// relocation, adoption and transformation timing must be observationally
// invisible and the whole Report must come out equal.
func TestStormRelocEagerEquivalent(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		eager, err := Run(Config{Seed: seed, Updates: 20})
		if err != nil {
			t.Fatalf("seed %d eager: %v", seed, err)
		}
		reloc, err := Run(Config{Seed: seed, Updates: 20, Concurrent: true})
		if err != nil {
			t.Fatalf("seed %d reloc: %v", seed, err)
		}
		if *eager != *reloc {
			t.Fatalf("seed %d: relocation timing changed the trajectory:\n  eager=%+v\n  reloc=%+v",
				seed, *eager, *reloc)
		}
	}
}

// TestStormTierEquivalence runs the same seeds on base code as the compiler
// produces it (superinstructions, inline caches) and on its plain reference
// spelling (1:1 resolution only). The shadow oracle validates every field
// value, static, array and probe after each update; the probe pass runs
// virtual dispatch through the probe methods' current code, so the default
// run exercises inline caches across repeated updates of the classes behind
// those call sites. Requiring the two Reports byte-identical pins the whole
// trajectory: superinstruction fusion and ICs must be observationally
// invisible — including across every IC flush and code invalidation the
// updates trigger — which is what lets fusion be part of base compilation.
// (The opt tier is out of reach on both sides: its inlining removes
// method-entry yield points, which legitimately shifts slice boundaries — a
// property of inlining, not a tier-honesty bug.)
func TestStormTierEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		fused, err := runWatched(Config{Seed: seed, Updates: 20, OptThreshold: 1 << 30})
		if err != nil {
			t.Fatalf("seed %d default: %v", seed, err)
		}
		plain, err := runWatched(Config{Seed: seed, Updates: 20, Plain: true})
		if err != nil {
			t.Fatalf("seed %d plain: %v", seed, err)
		}
		if *fused != *plain {
			t.Fatalf("seed %d: fusion and inline caches changed the trajectory:\n  default=%+v\n  plain=%+v",
				seed, *fused, *plain)
		}
	}
}

// runWatched is Run with the operand stack of every frame held to its
// compile-time bound (vmtest.WatchStacks), from the end of boot on.
func runWatched(cfg Config) (*Report, error) {
	r := newRunner(cfg)
	if err := r.boot(); err != nil {
		return r.rep, err
	}
	check := vmtest.WatchStacks(r.v)
	rep, err := r.drive()
	if err == nil {
		err = check()
	}
	return rep, err
}

// TestStormStackBound runs the three seeds every CHANGES.md entry diffs
// against its parent (`jvolve-bench -exp storm -updates 40`) on the default
// tier ladder — base and opt frames, OSR and transformer runs among them —
// and no frame of any of them regrows its operand stack.
func TestStormStackBound(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		if _, err := runWatched(Config{Seed: seed, Updates: 40}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestStormStaleICCoverage proves the storm's stale-IC coverage is real,
// not vacuous: a default-tier run whose updates repeatedly replace the
// classes behind the hot monomorphic snap/probe call sites must actually
// drive inline-cache traffic (hits), flush IC entries at update installs,
// and invalidate the code that holds them — all while the shadow oracle and
// CheckVM stay green. An IC left stale across any of those updates would
// dispatch to the old method body and show up as a probe-oracle mismatch.
func TestStormStaleICCoverage(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := Run(Config{Seed: 11, Updates: 30, OptThreshold: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied < 30 {
		t.Fatalf("applied only %d/30 updates", rep.Applied)
	}
	if hits := reg.Counter("govolve_jit_ic_hits_total").Value(); hits == 0 {
		t.Fatal("no inline-cache hits: the storm never exercised cached dispatch")
	}
	if flushes := reg.Counter("govolve_jit_ic_flushes_total").Value(); flushes == 0 {
		t.Fatal("no IC flushes: updates installed without clearing inline caches")
	}
	t.Logf("ic hits=%d misses=%d flushes=%d",
		reg.Counter("govolve_jit_ic_hits_total").Value(), reg.Counter("govolve_jit_ic_misses_total").Value(),
		reg.Counter("govolve_jit_ic_flushes_total").Value())
}

// TestBootstrapDefsSharedUnchanged pins what lets vm.New assemble the
// bootstrap classes once per process: every VM is handed the same
// definitions, and neither 40 storm updates (loads, renames of old versions,
// JIT compiles, transformer runs) nor a LoadProgram writes to them. Printed
// before and after, they read byte for byte like a fresh assembly.
func TestBootstrapDefsSharedUnchanged(t *testing.T) {
	fresh, err := asm.Assemble("bootstrap.jva", vm.BootstrapSource)
	if err != nil {
		t.Fatal(err)
	}
	want := asm.Print(fresh)
	loaded := func() []*classfile.Class {
		v, err := vm.New(vm.Options{HeapWords: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defs := make([]*classfile.Class, len(fresh))
		for i, c := range fresh {
			defs[i] = v.Reg.LookupDef(c.Name)
		}
		return defs
	}
	before := loaded()
	if got := asm.Print(before); got != want {
		t.Fatalf("bootstrap definitions differ from a fresh assembly before anything ran:\n%s", got)
	}

	if _, err := Run(Config{Seed: 7, Updates: 40}); err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Options{HeapWords: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.AssembleProgram("user.jva", `
class Greeter extends Object {
  static field greeting LString;
  static method <clinit>()V {
    ldc "hello"
    ldc " world"
    invokevirtual String.concat(LString;)LString;
    putstatic Greeter.greeting LString;
    return
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}

	after := loaded()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("class %s: a later VM got a different definition: bootstrap is assembled more than once", fresh[i].Name)
		}
	}
	if got := asm.Print(after); got != want {
		t.Fatalf("bootstrap definitions changed under a storm run and a LoadProgram:\n%s", got)
	}
}
