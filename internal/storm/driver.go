package storm

import (
	"io"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/vm"
)

// Driver drives a live VM through an externally generated version chain.
// It is the storm runner with generation inverted: storm.Run mutates its
// own model one step from the running version, while a Driver is handed
// pre-built StepSpecs (see NextVersion) and supplies everything else — the
// booted VM with live workload threads, the workload eras between updates,
// the Go-side shadow model advanced through every applied transformation,
// and the full oracle sweep (storm.CheckVM plus specimen/static/array/probe
// checks). The stream replayer composes Drivers with chains to exercise
// long multi-release update sequences under hostile interleavings.
type Driver struct {
	r *runner
}

// DriverConfig tunes one chain replay. The zero value gets the same
// defaults as storm.Config; the chain seed doubles as the scheduling seed
// for the driver's own rng (workload eras, pokes, traffic), so a chain
// replay is deterministic end to end given a deterministic engine mode.
type DriverConfig struct {
	Seed      int64
	Specimens int // tracked live instances per generated class (default 3)

	HeapWords   int // semi-space words (default 1<<16)
	MaxAttempts int // safe-point attempts before abort (default 400)
	OSROpt      bool
	Concurrent  bool // relocation drain and on-touch transformation after the pause

	// EventTail is the flight-recorder tail embedded in failures (default
	// 40; negative disables the recorder).
	EventTail int
	// Metrics, if set, attaches the registry to the VM so the engine and
	// the stream obs plane publish into it. When nil the driver still arms
	// gating against a private registry (see Config.GateSpecs).
	Metrics *obs.Registry

	// GateSpecs / GatePolicy configure the engine's per-update health gates
	// (nil specs = obs.DefaultGateSpecs; zero policy = core.GateObserve).
	GateSpecs  []obs.GateSpec
	GatePolicy core.GatePolicy

	Log io.Writer
}

// NewDriver boots a VM at v0 with the storm workload (spinner, acceptor,
// specimens, arrays) and the whole-VM checker armed on Engine.AfterUpdate.
// The initial oracle sweep runs before it returns, so a non-nil Driver
// starts from a verified state.
func NewDriver(cfg DriverConfig, v0 Version) (*Driver, error) {
	c := Config{
		Seed:        cfg.Seed,
		Specimens:   cfg.Specimens,
		HeapWords:   cfg.HeapWords,
		MaxAttempts: cfg.MaxAttempts,
		OSROpt:      cfg.OSROpt,
		Concurrent:  cfg.Concurrent,
		EventTail:   cfg.EventTail,
		GateSpecs:   cfg.GateSpecs,
		GatePolicy:  cfg.GatePolicy,
		Log:         cfg.Log,
	}
	r := newRunner(c)
	r.model, r.prog = v0.model, v0.prog
	if err := r.bootVM(cfg.Metrics); err != nil {
		return nil, err
	}
	return &Driver{r: r}, nil
}

// VM returns the live VM.
func (d *Driver) VM() *vm.VM { return d.r.v }

// Engine returns the DSU engine.
func (d *Driver) Engine() *core.Engine { return d.r.eng }

// Report returns the running tally (updated in place).
func (d *Driver) Report() *Report {
	d.r.rep.Specs = len(d.r.specs)
	return d.r.rep
}

// Era runs one workload era between updates: scheduler slices, client
// traffic against the acceptor, shadow-mirrored pokes, and occasionally a
// plain collection followed by the full oracle sweep.
func (d *Driver) Era() error { return d.r.era() }

// ApplyStep drives one pre-generated chain step through the engine against
// the live VM: request, step the scheduler (with mid-update traffic) until
// the update resolves, then on Applied advance the shadow model and top up
// specimens for any added classes. The AfterUpdate whole-VM sweep runs at
// the resolving safe point; its verdict is returned here. Callers choose
// the post-step oracle depth themselves (CheckFull or CheckLight) — unlike
// storm.Run, no full sweep is implied, so a replayer can deliberately
// leave a drain half-finished before the next step.
//
// ApplyOpts tunes one ApplyStep call.
type ApplyOpts struct {
	// MaxAttempts overrides the config's safe-point attempt bound for this
	// request (0 = config default). Replayers escalate it across retries,
	// because unlike storm.Run a chain cannot abandon a hard step for a
	// fresh mutation batch.
	MaxAttempts int
	// Quiesce closes the open client connections before the request and
	// stops injecting traffic while the update is in flight, so the
	// acceptor parks in Net.accept instead of cycling through the hub
	// method. With only the spinner left visiting a changed hub method,
	// the return barrier converges where two alternating threads can
	// ping-pong the safe-point search forever — the retry posture after a
	// step aborts under full load.
	Quiesce bool
}

// An Aborted outcome is not an error: the chain did not advance, and the
// same StepSpec may be retried after another era.
func (d *Driver) ApplyStep(st *StepSpec, opts ApplyOpts) (*core.Result, error) {
	r := d.r
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = r.cfg.MaxAttempts
	}
	if opts.Quiesce {
		for _, id := range r.conns {
			r.v.Net.ClientClose(id)
		}
		r.conns = r.conns[:0]
	}
	pending, err := r.eng.RequestUpdate(st.Spec, core.Options{
		Timeout:     time.Hour, // determinism: only MaxAttempts aborts
		MaxAttempts: maxAttempts,
		OSROpt:      r.cfg.OSROpt,
	})
	if err != nil {
		return nil, r.failf("update rejected by verifier: %v", err)
	}
	for i := 0; !pending.Done(); i++ {
		if i > 50_000_000 {
			return nil, r.failf("update did not resolve")
		}
		r.v.Step(1)
		r.rep.Steps++
		if !opts.Quiesce && i%64 == 63 {
			r.traffic() // keep the acceptor waking up mid-update
		}
	}

	res := pending.Result()
	switch res.Outcome {
	case core.Applied:
		r.rep.Applied++
		r.updateIdx++
		r.shadowApply(st.Spec, st.Next.model)
		r.model = st.Next.model
		r.prog = st.Next.prog
		r.syncStatics()
		if err := r.ensureSpecimens(); err != nil {
			return res, err
		}
	case core.Aborted:
		r.rep.Aborted++
	default:
		return res, r.failf("update failed mid-flight: %v", res.Err)
	}
	if r.hookErr != nil {
		err := r.failf("post-update hook: %v", r.hookErr)
		r.hookErr = nil
		return res, err
	}
	return res, nil
}

// CheckFull runs the complete oracle sweep: whole-VM invariants plus the
// shadow-model comparison over every specimen, static and array, and the
// bytecode probe cross-check. In the concurrent mode it probes first (firing the
// read barrier through real dispatch), force-drains the residue, and only
// then does the raw-heap oracle reads — so a full check always ends with
// an empty drain backlog.
func (d *Driver) CheckFull() error { return d.r.checkAll() }

// CheckLight runs only the whole-VM invariant sweep (storm.CheckVM). It is
// drain-aware, so it is the correct per-step check while a drain is
// deliberately left in flight.
func (d *Driver) CheckLight() error {
	if err := CheckVM(d.r.v); err != nil {
		return d.r.failf("invariant: %v", err)
	}
	d.r.rep.Checks++
	return nil
}

// ForceDrain force-completes any in-flight drain (no-op otherwise)
// and surfaces the first transformer error the drain recorded.
func (d *Driver) ForceDrain() error {
	if err := d.r.eng.ForceDrain(); err != nil {
		return d.r.failf("drain: %v", err)
	}
	return nil
}

// TouchSpecimens fires the on-touch read barrier on up to n live specimens by
// running their snap probes through real bytecode — a partial drain that
// leaves the rest of the backlog tagged. It is the hostile-interleaving
// primitive: touch a few objects, then request the next update while the
// drain is still active. Returns how many specimens were touched.
func (d *Driver) TouchSpecimens(n int) (int, error) {
	r := d.r
	touched := 0
	for _, s := range r.specs {
		if touched >= n {
			break
		}
		if s.deleted {
			continue
		}
		cls := r.v.Reg.LookupClass(s.class)
		if cls == nil {
			continue
		}
		m := cls.Method("snap", classfile.Sig("(L"+s.class+";)V"))
		if m == nil {
			continue
		}
		if err := r.v.RunSynchronous("stream-touch", m, []rt.Value{rt.RefVal(r.addrOf(s.handle))}); err != nil {
			return touched, r.failf("touch of %s: %v", s.class, err)
		}
		touched++
	}
	return touched, nil
}

// Failf formats a failure with the driver's reproducing seed, current
// update index and flight-recorder tail — the same shape storm.Run errors
// carry — so chain replayers report violations identically.
func (d *Driver) Failf(format string, args ...any) error {
	return d.r.failf(format, args...)
}
