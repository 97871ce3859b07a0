package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"govolve"
	"govolve/internal/vm"
)

// guest-compute: five terminating guest kernels, each a main()V run to
// completion by VM.Run() on a fresh VM and printing one checksum. Dispatch,
// call/frame set-up, heap access and plain collection do the work; NetSim,
// the blocking scheduler paths and the string natives are never entered.
// The seed changes the data the kernels compute on, never how much they do.

const kernelMask = 2147483647 // results stay non-negative 31-bit values

// kernelParams are the seed-derived constants baked into the guest sources
// and fed to the Go references.
type kernelParams struct {
	seed                 int64 // 31-bit value mixed into every kernel
	arithN               int64
	virtualN             int64
	fibN, fibA, fibB     int64
	fieldObjects         int64 // power of two
	fieldSweeps          int64
	fieldStart, fieldInc int64
	allocRetained        int64
	allocChurn           int64
}

// fieldMult makes idx*fieldMult+inc (inc odd) a full-period generator
// modulo any power of two: every object is visited once per sweep.
const fieldMult = 4093

func newKernelParams(cfg config) kernelParams {
	r := newRNG(cfg.seed, 2)
	objects := int64(cfg.scale(1<<16, 1<<8))
	return kernelParams{
		seed:          int64(r.next() & kernelMask),
		arithN:        int64(cfg.scale(1_200_000, 2_000)),
		virtualN:      int64(cfg.scale(280_000, 1_000)),
		fibN:          int64(cfg.scale(25, 10)),
		fibA:          int64(r.next() & 0xffff),
		fibB:          int64(r.next() & 0xffff),
		fieldObjects:  objects,
		fieldSweeps:   int64(cfg.scale(4, 2)),
		fieldStart:    int64(r.next()) & (objects - 1),
		fieldInc:      (int64(r.next()) & (objects - 1)) | 1,
		allocRetained: int64(cfg.scale(50_000, 500)),
		allocChurn:    int64(cfg.scale(210_000, 4_200)),
	}
}

const arithSrc = `
class Arith {
  static method main()V {
    const {SEED}
    store 0
    const 0
    store 1
    const 0
    store 2
  loop:
    load 1
    const {N}
    if_icmpge done
    load 0
    const 1103515245
    mul
    const 12345
    add
    load 1
    add
    const 2147483647
    and
    store 0
    load 2
    load 0
    xor
    store 2
    load 1
    const 1
    add
    store 1
    goto loop
  done:
    load 2
    invokestatic System.printInt(I)V
    return
  }
}
`

func arithRef(p kernelParams) int64 {
	x, acc := p.seed, int64(0)
	for i := int64(0); i < p.arithN; i++ {
		x = (x*1103515245 + 12345 + i) & kernelMask
		acc ^= x
	}
	return acc
}

const virtualSrc = `
class Cell {
  field v I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Cell.v I
    return
  }
  method step(I)I {
    load 0
    getfield Cell.v I
    load 1
    add
    const 2147483647
    and
    return
  }
}
class Virtual {
  static method main()V {
    new Cell
    dup
    const {SEED}
    invokespecial Cell.<init>(I)V
    store 0
    const 1
    store 1
    const 0
    store 2
    const 0
    store 3
  loop:
    load 2
    const {N}
    if_icmpge done
    load 0
    load 1
    invokevirtual Cell.step(I)I
    const 3
    mul
    const 1048575
    and
    store 1
    load 3
    load 1
    add
    store 3
    load 2
    const 1
    add
    store 2
    goto loop
  done:
    load 3
    invokestatic System.printInt(I)V
    return
  }
}
`

func virtualRef(p kernelParams) int64 {
	x, acc := int64(1), int64(0)
	for i := int64(0); i < p.virtualN; i++ {
		x = (((p.seed + x) & kernelMask) * 3) & 1048575
		acc += x
	}
	return acc
}

const fibSrc = `
class Fib {
  static method fib(III)I {
    load 0
    ifne notzero
    load 1
    return
  notzero:
    load 0
    const 1
    if_icmpne recurse
    load 2
    return
  recurse:
    load 0
    const 1
    sub
    load 1
    load 2
    invokestatic Fib.fib(III)I
    load 0
    const 2
    sub
    load 1
    load 2
    invokestatic Fib.fib(III)I
    add
    const 2147483647
    and
    return
  }
  static method main()V {
    const {N}
    const {A}
    const {B}
    invokestatic Fib.fib(III)I
    invokestatic System.printInt(I)V
    return
  }
}
`

func fibRef(n, a, b int64) int64 {
	switch n {
	case 0:
		return a
	case 1:
		return b
	}
	return (fibRef(n-1, a, b) + fibRef(n-2, a, b)) & kernelMask
}

const fieldSrc = `
class Node {
  field a I
  field b I
  method <init>(II)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Node.a I
    load 0
    load 2
    putfield Node.b I
    return
  }
}
class Field {
  static method main()V {
    const {OBJECTS}
    newarray LNode;
    store 0
    const {OBJECTS}
    newarray I
    store 1
    const 0
    store 2
  build:
    load 2
    const {OBJECTS}
    if_icmpge built
    load 0
    load 2
    new Node
    dup
    load 2
    load 2
    const 7
    mul
    const {SEED}
    xor
    invokespecial Node.<init>(II)V
    aset
    load 2
    const 1
    add
    store 2
    goto build
  built:
    const {START}
    store 3
    const 0
    store 4
    const 0
    store 2
  sweep:
    load 2
    const {VISITS}
    if_icmpge done
    load 0
    load 3
    aget
    store 5
    load 5
    load 5
    getfield Node.a I
    load 5
    getfield Node.b I
    add
    load 2
    add
    const 2147483647
    and
    putfield Node.a I
    load 1
    load 3
    load 5
    getfield Node.a I
    aset
    load 4
    load 1
    load 3
    aget
    xor
    store 4
    load 3
    const {MULT}
    mul
    const {INC}
    add
    const {INDEXMASK}
    and
    store 3
    load 2
    const 1
    add
    store 2
    goto sweep
  done:
    load 4
    invokestatic System.printInt(I)V
    return
  }
}
`

func fieldRef(p kernelParams) int64 {
	type node struct{ a, b int64 }
	nodes := make([]node, p.fieldObjects)
	ints := make([]int64, p.fieldObjects)
	for i := range nodes {
		nodes[i] = node{a: int64(i), b: (int64(i) * 7) ^ p.seed}
	}
	idx, acc := p.fieldStart, int64(0)
	for i := int64(0); i < p.fieldObjects*p.fieldSweeps; i++ {
		n := &nodes[idx]
		n.a = (n.a + n.b + i) & kernelMask
		ints[idx] = n.a
		acc ^= ints[idx]
		idx = (idx*fieldMult + p.fieldInc) & (p.fieldObjects - 1)
	}
	return acc
}

const allocSrc = `
class Link {
  field val I
  field next LLink;
  method <init>(ILLink;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Link.val I
    load 0
    load 2
    putfield Link.next LLink;
    return
  }
}
class Alloc {
  static method main()V {
    null
    store 0
    const 0
    store 1
  build:
    load 1
    const {RETAINED}
    if_icmpge built
    new Link
    dup
    load 1
    const {SEED}
    xor
    load 0
    invokespecial Link.<init>(ILLink;)V
    store 0
    load 1
    const 1
    add
    store 1
    goto build
  built:
    null
    store 2
    const 0
    store 3
    const 0
    store 1
  churn:
    load 1
    const {CHURN}
    if_icmpge churned
    new Link
    dup
    load 1
    load 2
    invokespecial Link.<init>(ILLink;)V
    store 2
    load 3
    const 31
    mul
    load 2
    getfield Link.val I
    add
    const 2147483647
    and
    store 3
    load 1
    const 7
    and
    const 7
    if_icmpne keep
    null
    store 2
  keep:
    load 1
    const 1
    add
    store 1
    goto churn
  churned:
    load 0
    store 4
  walk:
    load 4
    ifnull done
    load 3
    load 4
    getfield Link.val I
    add
    const 2147483647
    and
    store 3
    load 4
    getfield Link.next LLink;
    store 4
    goto walk
  done:
    load 3
    invokestatic System.printInt(I)V
    return
  }
}
`

func allocRef(p kernelParams) int64 {
	acc := int64(0)
	for i := int64(0); i < p.allocChurn; i++ {
		acc = (acc*31 + i) & kernelMask
	}
	// The retained list is walked newest first.
	for i := p.allocRetained - 1; i >= 0; i-- {
		acc = (acc + (i ^ p.seed)) & kernelMask
	}
	return acc
}

// allocHeapWords sizes the alloc kernel's semispace so the churn forces
// about 21 plain collections of the retained list: a Link is 4 words.
func allocHeapWords(p kernelParams) int {
	const linkWords = 4
	return int(p.allocRetained*linkWords + p.allocChurn*linkWords/21 + 64)
}

// kernel is one guest program.
type kernel struct {
	name      string
	mainClass string
	source    string
	heapWords int
	program   *govolve.Program
}

func fill(src string, kv ...any) string {
	pairs := make([]string, 0, len(kv))
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, "{"+kv[i].(string)+"}", fmt.Sprint(kv[i+1]))
	}
	return strings.NewReplacer(pairs...).Replace(src)
}

// buildKernels assembles the five kernels, in the order they run and report.
func buildKernels(p kernelParams) ([]*kernel, error) {
	ks := []*kernel{
		{name: "arith", mainClass: "Arith", heapWords: 1 << 14,
			source: fill(arithSrc, "SEED", p.seed, "N", p.arithN)},
		{name: "virtual", mainClass: "Virtual", heapWords: 1 << 14,
			source: fill(virtualSrc, "SEED", p.seed, "N", p.virtualN)},
		{name: "fib", mainClass: "Fib", heapWords: 1 << 14,
			source: fill(fibSrc, "N", p.fibN, "A", p.fibA, "B", p.fibB)},
		{name: "field", mainClass: "Field", heapWords: int(p.fieldObjects) * 16,
			source: fill(fieldSrc, "OBJECTS", p.fieldObjects, "SEED", p.seed, "START", p.fieldStart,
				"VISITS", p.fieldObjects*p.fieldSweeps, "MULT", fieldMult, "INC", p.fieldInc,
				"INDEXMASK", p.fieldObjects-1)},
		{name: "alloc", mainClass: "Alloc", heapWords: allocHeapWords(p),
			source: fill(allocSrc, "SEED", p.seed, "RETAINED", p.allocRetained, "CHURN", p.allocChurn)},
	}
	for _, k := range ks {
		prog, err := govolve.Assemble(k.name+".jva", k.source)
		if err != nil {
			return nil, err
		}
		k.program = prog
	}
	return ks, nil
}

// kernelRun is one execution of one kernel on a fresh VM.
type kernelRun struct {
	load, run time.Duration
	output    string
	guest     vm.Stats
	goMallocs uint64
}

func (k *kernel) execute(rec *recorder, id int64) (kernelRun, error) {
	var kr kernelRun
	var out bytes.Buffer
	machine, err := govolve.NewVM(govolve.Options{HeapWords: k.heapWords, Out: &out})
	if err != nil {
		return kr, err
	}
	kr.load = rec.timed(spVMLoad, id, func() { err = machine.LoadProgram(k.program) })
	if err != nil {
		return kr, err
	}
	if _, err := machine.SpawnMain(k.mainClass); err != nil {
		return kr, err
	}
	h0 := readGoHeap()
	kr.run = rec.timed(spVMRun, id, func() { err = machine.Run() })
	if err != nil {
		return kr, fmt.Errorf("kernel %s: %w", k.name, err)
	}
	kr.goMallocs = readGoHeap().sub(h0).mallocs
	kr.guest = machine.Stats()
	kr.output = out.String()
	return kr, nil
}

// computeState is the assembled kernels and the output each must print.
type computeState struct {
	kernels []*kernel
	want    []string
}

// round runs the five kernels once, checking each checksum.
func (st computeState) round(out *outcome, rec *recorder, id int64) ([]kernelRun, error) {
	runs := make([]kernelRun, len(st.kernels))
	for i, k := range st.kernels {
		kr, err := k.execute(rec, id)
		if err != nil {
			return nil, err
		}
		out.check(kr.output == st.want[i])
		runs[i] = kr
	}
	return runs, nil
}

func runGuestCompute(cfg config, orc *oracles) (*outcome, error) {
	params := newKernelParams(cfg)
	out := newOutcome()
	// Set-up assembles the kernels, computes the reference checksums and
	// runs one round nobody times.
	st, setupS, err := timeSetups(func() (computeState, error) {
		ks, err := buildKernels(params)
		if err != nil {
			return computeState{}, err
		}
		st := computeState{kernels: ks}
		for _, k := range ks {
			ref := orc.kernels[k.name](params)
			st.want = append(st.want, strconv.FormatInt(ref, 10)+"\n") // printInt ends the line
		}
		_, err = st.round(out, nil, 0)
		return st, err
	})
	if err != nil {
		return nil, err
	}

	runMs := make([]series, len(st.kernels))
	var roundMs, loadMs series
	var last []kernelRun
	var rss series
	b := cfg.budget(cfg.phase(tracedUntracedShare), 2)
	for b.more() {
		if last, err = st.round(out, nil, 0); err != nil {
			return nil, err
		}
		rss.add(residentMB())
		var sum, load time.Duration
		for i, kr := range last {
			runMs[i].addDur(kr.run)
			sum += kr.run
			load += kr.load
		}
		roundMs.addDur(sum)
		loadMs.addDur(load)
	}
	var floorSum, medianSum, floorMax float64
	for i := range st.kernels {
		f := runMs[i].floor()
		floorSum += f
		medianSum += runMs[i].median()
		floorMax = max(floorMax, f)
	}
	if !cfg.trace {
		out.finishUntraced(cfg, setupS, roundMs, rss, floorSum, floorMax)
		return out, nil
	}

	rec := newRecorder()
	var tracedMs series
	b = cfg.budget(cfg.phase(tracedTracedShare+tracedObsShare), 2)
	for id := int64(1); b.more(); id++ {
		rec.begin(spRun, id)
		t0 := time.Now()
		runs, err := st.round(out, rec, id)
		out.tracedWall += time.Since(t0)
		rec.end()
		if err != nil {
			return nil, err
		}
		var sum time.Duration
		for _, kr := range runs {
			sum += kr.run
		}
		tracedMs.addDur(sum)
	}

	var instructions, promotions int64
	for i, k := range st.kernels {
		guest, f := last[i].guest, runMs[i].floor()
		instructions += guest.Instructions
		promotions += guest.TracePromotions
		out.set("vm.kernel."+k.name+"_ms", f)
		out.set("vm.kernel."+k.name+"_mips", ratio(float64(guest.Instructions)/1e6, f/1000))
		switch k.name {
		case "virtual":
			out.set("vm.ic_hit_ratio", ratio(float64(guest.ICHits), float64(guest.ICHits+guest.ICMisses)))
			out.set("vm.kernel.virtual_go_mallocs_per_call", ratio(float64(last[i].goMallocs), float64(params.virtualN)))
		case "alloc":
			out.set("vm.kernel.alloc_gc_collections", float64(guest.GCCollections))
		}
	}
	out.set("compute_ms", floorSum)
	out.set("compute_ms.median", medianSum)
	out.set("vm.ins_per_s", ratio(float64(instructions), floorSum/1000))
	out.set("vm.trace_promotions", float64(promotions))
	out.set("vm.load_program_ms", loadMs.floor())
	out.set("vm.step_share", rec.layerShare("vm"))
	if err := out.finishTraced(cfg, roundMs, tracedMs, rec); err != nil {
		return nil, err
	}
	return out, nil
}
