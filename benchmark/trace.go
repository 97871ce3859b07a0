package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// spanKind names one call across a layer boundary. The part before the dot
// is the layer (a module of the repository, or "driver" for the benchmark's
// own code); shares are summed per layer.
type spanKind uint8

const (
	spRun spanKind = iota
	spWindow
	spRequest
	spNetConnect
	spNetSend
	spNetRecv
	spNetClose
	spVMStep
	spVMRun
	spVMLoad
	spVMCollect
	spHeapPopulate
	spHeapSweep
	spAsmAssemble
	spVerify
	spUptPrepare
	spCoreRequest
	spCoreApply
	spAppsLaunch
	spAppsPump
	spAppsProbe
	spJitCompile
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spRun:          "driver.run",
	spWindow:       "driver.window",
	spRequest:      "driver.request",
	spNetConnect:   "netsim.connect",
	spNetSend:      "netsim.send",
	spNetRecv:      "netsim.recv",
	spNetClose:     "netsim.close",
	spVMStep:       "vm.step",
	spVMRun:        "vm.run",
	spVMLoad:       "vm.load_program",
	spVMCollect:    "vm.collect",
	spHeapPopulate: "heap.populate",
	spHeapSweep:    "heap.sweep",
	spAsmAssemble:  "asm.assemble",
	spVerify:       "verifier.verify",
	spUptPrepare:   "upt.prepare",
	spCoreRequest:  "core.request",
	spCoreApply:    "core.apply",
	spAppsLaunch:   "apps.launch",
	spAppsPump:     "apps.pump",
	spAppsProbe:    "apps.probe",
	spJitCompile:   "jit.compile",
}

// maxKeptSpans bounds the spans kept for the trace file; self times and
// counts still cover every span recorded.
const maxKeptSpans = 100_000

type keptSpan struct {
	kind       spanKind
	start, end time.Duration // since the recorder's epoch
	parent     int32         // index into kept, -1 for a root or an unkept parent
	id         int64         // request, repetition or update number
}

type openSpan struct {
	kind     spanKind
	start    time.Time
	children time.Duration
	kept     int32 // index into kept, -1 once the cap is reached
}

// recorder is the benchmark's in-memory span recorder. Spans nest strictly
// (one load-generating goroutine), so a stack suffices and a span's self
// time is its duration minus the durations of its direct children. A nil
// recorder records nothing: the untraced runs pass nil.
type recorder struct {
	epoch time.Time
	stack []openSpan
	self  [numSpanKinds]time.Duration
	count [numSpanKinds]int64
	kept  []keptSpan
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), stack: make([]openSpan, 0, 16)}
}

func (r *recorder) begin(kind spanKind, id int64) {
	if r == nil {
		return
	}
	now := time.Now()
	idx := int32(-1)
	if len(r.kept) < maxKeptSpans {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].kept
		}
		idx = int32(len(r.kept))
		r.kept = append(r.kept, keptSpan{kind: kind, start: now.Sub(r.epoch), parent: parent, id: id})
	}
	r.stack = append(r.stack, openSpan{kind: kind, start: now, kept: idx})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	now := time.Now()
	n := len(r.stack) - 1
	top := r.stack[n]
	r.stack = r.stack[:n]
	dur := now.Sub(top.start)
	r.self[top.kind] += dur - top.children
	r.count[top.kind]++
	if n > 0 {
		r.stack[n-1].children += dur
	}
	if top.kept >= 0 {
		r.kept[top.kept].end = now.Sub(r.epoch)
	}
}

// timed runs fn inside a span and returns how long it took; the time is
// measured with or without a recorder.
func (r *recorder) timed(kind spanKind, id int64, fn func()) time.Duration {
	r.begin(kind, id)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end()
	return d
}

// spans is the number of spans recorded.
func (r *recorder) spans() int64 {
	var n int64
	for _, c := range r.count {
		n += c
	}
	return n
}

// selfTotal is the sum of every span's self time: the wall time the root
// spans covered.
func (r *recorder) selfTotal() time.Duration {
	var d time.Duration
	for _, s := range r.self {
		d += s
	}
	return d
}

// layerShare is the share of all recorded self time spent in spans of one
// layer.
func (r *recorder) layerShare(layer string) float64 {
	total := r.selfTotal()
	if total <= 0 {
		return 0
	}
	var d time.Duration
	for k, s := range r.self {
		if strings.HasPrefix(spanNames[k], layer+".") {
			d += s
		}
	}
	return float64(d) / float64(total)
}

// writeChromeTrace writes the kept spans in the Chrome trace-event format
// (load the file in chrome://tracing or Perfetto).
func (r *recorder) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range r.kept {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"id":%d}}`,
			spanNames[s.kind], layerOf(s.kind), micros(s.start), micros(s.end-s.start), i, s.parent, s.id)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func layerOf(kind spanKind) string {
	name := spanNames[kind]
	return name[:strings.IndexByte(name, '.')]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
