package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"govolve"
	"govolve/internal/core"
	"govolve/internal/rt"
)

// update-pause: the paper's Table 1 microbenchmark, owned by the benchmark.
// Objects of two classes, Change and NoChange (three int fields, three
// reference fields that stay null), are pinned by one array in a heap five
// times the live size; the update adds an int field to Change and runs the
// UPT default transformer as interpreted bytecode. Before each update one
// plain collection of the same populated heap is timed: the same gc layer
// used without DSU, so a DSU-collection gain paid for by ordinary
// collection shows.

const pauseV1 = `
class Change {
  field i1 I
  field i2 I
  field i3 I
  field r1 LChange;
  field r2 LChange;
  field r3 LChange;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class NoChange {
  field i1 I
  field i2 I
  field i3 I
  field r1 LNoChange;
  field r2 LNoChange;
  field r3 LNoChange;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
`

var pauseV2 = strings.Replace(pauseV1,
	"class Change {\n  field i1 I\n  field i2 I\n  field i3 I",
	"class Change {\n  field i1 I\n  field i2 I\n  field i3 I\n  field i4 I", 1)

// pauseFractions are the shares of objects that are of class Change,
// visited round-robin; index 1 is the one the end-to-end metrics report.
var pauseFractions = [3]float64{0, 0.5, 1.0}

var pauseFractionTags = [3]string{"f0", "f50", "f100"}

type pauseState struct {
	v1, v2 *govolve.Program
	spec   *govolve.Spec
}

func pauseSetup() (pauseState, error) {
	var st pauseState
	var err error
	if st.v1, err = govolve.Assemble("pause-v1.jva", pauseV1); err != nil {
		return st, err
	}
	if st.v2, err = govolve.Assemble("pause-v2.jva", pauseV2); err != nil {
		return st, err
	}
	st.spec, err = govolve.PrepareUpdate("p", st.v1, st.v2)
	return st, err
}

// pausePlan marks which objects are of class Change: exactly
// round(frac*n) of them, interleaved in seeded order.
func pausePlan(r *rng, n int, frac float64) []bool {
	plan := make([]bool, n)
	k := int(float64(n)*frac + 0.5)
	for i := 0; i < k; i++ {
		plan[i] = true
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		plan[i], plan[j] = plan[j], plan[i]
	}
	return plan
}

// pauseFieldValue is what the driver writes into field k (1..3) of object i.
func pauseFieldValue(seed int64, i, k int) int64 {
	return (int64(i)*int64(k) + seed) & kernelMask
}

// pauseRep is one repetition at one fraction.
type pauseRep struct {
	populate, plain, request, total, sweep time.Duration
	stats                                  core.Stats
	liveWords, usedAfter                   int
	instructions                           int64
}

func (st pauseState) rep(cfg config, orc *oracles, out *outcome, rec *recorder, id int64, plan []bool) (pauseRep, error) {
	var pr pauseRep
	n := len(plan)
	// An object is 8 words; an updated one costs its copy plus a 9-word
	// shell during the DSU collection. Five times that keeps the only
	// collections the two the driver asks for.
	live := n*8 + n + 2*rt.HeaderWords + 64
	machine, err := govolve.NewVM(govolve.Options{HeapWords: 5 * live, Out: io.Discard})
	if err != nil {
		return pr, err
	}
	if err := machine.LoadProgram(st.v1); err != nil {
		return pr, err
	}
	classes := map[bool]*rt.Class{true: machine.Reg.LookupClass("Change"), false: machine.Reg.LookupClass("NoChange")}
	heap := machine.Heap

	rec.begin(spHeapPopulate, id)
	t0 := time.Now()
	arr, ok := heap.AllocArray(true, n)
	if !ok {
		return pr, fmt.Errorf("heap too small for %d objects", n)
	}
	pin := machine.PushHandle(arr) // pinned for the life of this VM
	for i, change := range plan {
		obj, ok := heap.AllocObject(classes[change])
		if !ok {
			return pr, fmt.Errorf("heap exhausted at object %d", i)
		}
		for k := 1; k <= 3; k++ {
			heap.SetFieldValue(obj, rt.HeaderWords+k-1, rt.IntVal(pauseFieldValue(cfg.seed, i, k)))
		}
		heap.SetElem(pin.Ref(), i, rt.RefVal(obj))
	}
	pr.populate = time.Since(t0)
	rec.end()

	pr.plain = rec.timed(spVMCollect, id, func() { _, err = machine.CollectGarbage() })
	if err != nil {
		return pr, err
	}
	pr.liveWords = heap.UsedWords()

	engine := govolve.NewEngine(machine)
	ins0 := machine.Stats().Instructions
	rec.begin(spCoreRequest, id)
	t0 = time.Now()
	pending, err := engine.RequestUpdate(st.spec, govolve.UpdateOptions{})
	pr.request = time.Since(t0)
	rec.end()
	if err != nil {
		return pr, err
	}
	rec.begin(spCoreApply, id)
	for !pending.Done() {
		machine.Step(1)
	}
	pr.total = time.Since(t0)
	rec.end()
	res := pending.Result()
	pr.stats = res.Stats
	pr.instructions = machine.Stats().Instructions - ins0
	pr.usedAfter = heap.UsedWords()
	out.check(res.Outcome == orc.pauseOutcome)
	if res.Outcome != govolve.Applied {
		return pr, nil
	}

	// Post-update sweep: every object is still there, of the right class
	// version, with its old fields preserved and the new one zero.
	newChange, noChange := machine.Reg.LookupClass("Change"), machine.Reg.LookupClass("NoChange")
	offsets := func(c *rt.Class, names ...string) ([]int, error) {
		offs := make([]int, len(names))
		for i, name := range names {
			f := c.Field(name)
			if f == nil {
				return nil, fmt.Errorf("class %s has no field %s after the update", c.Name, name)
			}
			offs[i] = f.Offset
		}
		return offs, nil
	}
	changeOffs, err := offsets(newChange, "i1", "i2", "i3", "i4")
	if err != nil {
		return pr, err
	}
	keepOffs, err := offsets(noChange, "i1", "i2", "i3")
	if err != nil {
		return pr, err
	}
	rec.begin(spHeapSweep, id)
	t0 = time.Now()
	bad := 0
	for i, change := range plan {
		obj := heap.Elem(pin.Ref(), i).Ref()
		cls, offs := noChange, keepOffs
		if change {
			cls, offs = newChange, changeOffs
		}
		good := obj != rt.Null && heap.ClassID(obj) == cls.ID
		for k := 1; good && k <= 3; k++ {
			good = heap.FieldValue(obj, offs[k-1], false).Int() == orc.pauseField(cfg.seed, i, k)
		}
		if good && change {
			good = heap.FieldValue(obj, offs[3], false).Int() == 0
		}
		if !good {
			bad++
		}
	}
	pr.sweep = time.Since(t0)
	rec.end()
	transformed := 0
	for _, change := range plan {
		if change {
			transformed++
		}
	}
	out.check(bad == 0 && res.Stats.TransformedObjects == transformed)
	return pr, nil
}

func runUpdatePause(cfg config, orc *oracles) (*outcome, error) {
	out := newOutcome()
	objects := cfg.scale(100_000, 2_000)
	planRNG := newRNG(cfg.seed, 3)
	// Set-up assembles both versions, prepares the update and runs one
	// repetition nobody times.
	st, setupS, err := timeSetups(func() (pauseState, error) {
		st, err := pauseSetup()
		if err != nil {
			return st, err
		}
		_, err = st.rep(cfg, orc, out, nil, 0, pausePlan(planRNG, objects, pauseFractions[1]))
		runtime.GC()
		return st, err
	})
	if err != nil {
		return nil, err
	}

	type perFraction struct {
		pause, total, gc, transform, install, safepoint series
		last                                            pauseRep
	}
	var fr [3]perFraction
	var plainMs, populateMs, sweepMs, requestMs, rss series
	var lastLive int
	one := func(rec *recorder, id int64, fi int, keep bool) (pauseRep, error) {
		pr, err := st.rep(cfg, orc, out, rec, id, pausePlan(planRNG, objects, pauseFractions[fi]))
		if err != nil {
			return pr, err
		}
		if keep {
			f := &fr[fi]
			f.pause.addDur(pr.stats.PauseTotal)
			f.total.addDur(pr.total)
			f.gc.addDur(pr.stats.PauseGC)
			f.transform.addDur(pr.stats.PauseTransform)
			f.install.addDur(pr.stats.PauseInstall)
			f.safepoint.addDur(pr.stats.SafePointDelay)
			f.last = pr
			plainMs.addDur(pr.plain)
			populateMs.addDur(pr.populate)
			sweepMs.addDur(pr.sweep)
			requestMs.addDur(pr.request)
			lastLive = pr.liveWords
			rss.add(residentMB()) // the repetition's heap is still resident
		}
		// Each repetition drops a heap of tens of MB; collecting it now
		// keeps the Go heap, and so peak RSS, from depending on when the
		// Go collector happens to run.
		runtime.GC()
		return pr, nil
	}

	b := cfg.budget(cfg.phase(tracedUntracedShare), 6)
	for i := 0; b.more(); i++ {
		if _, err := one(nil, 0, i%3, true); err != nil {
			return nil, err
		}
	}
	half := &fr[1]
	if !cfg.trace {
		out.finishUntraced(cfg, setupS, half.total, rss, half.total.floor(), half.pause.floor())
		return out, nil
	}

	rec := newRecorder()
	var tracedMs series
	b = cfg.budget(cfg.phase(tracedTracedShare+tracedObsShare), 3)
	for id := int64(1); b.more(); id++ {
		rec.begin(spRun, id)
		t0 := time.Now()
		pr, err := one(rec, id, 1, false)
		out.tracedWall += time.Since(t0)
		rec.end()
		if err != nil {
			return nil, err
		}
		tracedMs.addDur(pr.total)
	}

	out.set("pause_ms", half.pause.floor())
	out.set("pause_ms.median", half.pause.median())
	out.set("update_total_ms", half.total.floor())
	for fi, tag := range pauseFractionTags {
		out.set("core.pause_ms."+tag, fr[fi].pause.floor())
		out.set("gc.dsu_collect_ms."+tag, fr[fi].gc.floor())
	}
	out.set("core.transform_ms.f50", half.transform.floor())
	out.set("core.transform_ms.f100", fr[2].transform.floor())
	out.set("core.transform_ns_per_object", ratio(fr[2].transform.floor()*1e6, float64(objects)))
	out.set("core.install_ms", half.install.floor())
	out.set("core.request_ms", requestMs.floor())
	out.set("core.safepoint_ms", half.safepoint.floor())
	out.set("core.attempts_per_update", float64(half.last.stats.Attempts))
	out.set("gc.plain_collect_ms", plainMs.floor())
	out.set("gc.plain_words_per_s", ratio(float64(lastLive), plainMs.floor()/1000))
	out.set("gc.dsu_copied_words.f50", float64(half.last.stats.CopiedWords))
	out.set("gc.dsu_vs_plain_ratio", ratio(fr[0].gc.floor(), plainMs.floor()))
	out.set("heap.alloc_object_ns", ratio(populateMs.floor()*1e6, float64(objects)))
	out.set("heap.field_rw_ns", ratio(sweepMs.floor()*1e6, float64(objects)))
	out.set("heap.used_words_after", float64(half.last.usedAfter))
	out.set("vm.ins_per_s", ratio(float64(half.last.instructions), half.total.floor()/1000))
	out.set("vm.step_share", rec.layerShare("vm"))
	if err := out.finishTraced(cfg, half.total, tracedMs, rec); err != nil {
		return nil, err
	}
	return out, nil
}
