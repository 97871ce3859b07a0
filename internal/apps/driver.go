package apps

import (
	"fmt"
	"io"
	"strings"

	"govolve/internal/core"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// Server is a running instance of one application version with a DSU
// engine attached — the unit the update matrix and the Fig. 5 benchmark
// drive.
type Server struct {
	App        *App
	VM         *vm.VM
	Engine     *core.Engine
	VersionIdx int

	// Responses counts response lines consumed by the driver.
	Responses int64
}

// LaunchOptions tunes Launch.
type LaunchOptions struct {
	HeapWords int
	Version   int
	Out       io.Writer
	// Concurrent is vm.Options.Concurrent: updated-instance discovery runs
	// concurrently with the mutator (SATB) before the DSU pause, the bulk of
	// the copy as a relocation drain after it.
	Concurrent bool
}

// Launch boots a VM with the given application version and steps until all
// workload ports are listening.
func Launch(app *App, opts LaunchOptions) (*Server, error) {
	if opts.HeapWords <= 0 {
		opts.HeapWords = 1 << 20
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	machine, err := vm.New(vm.Options{
		HeapWords:  opts.HeapWords,
		Out:        opts.Out,
		Concurrent: opts.Concurrent,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{App: app, VM: machine, Engine: core.NewEngine(machine), VersionIdx: opts.Version}
	prog, err := app.Program(opts.Version)
	if err != nil {
		return nil, err
	}
	if err := machine.LoadProgram(prog); err != nil {
		return nil, err
	}
	if _, err := machine.SpawnMain(app.MainClass); err != nil {
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		machine.Step(5)
		ready := true
		for _, w := range app.Workloads {
			if !machine.Net.Listening(w.Port) {
				ready = false
			}
		}
		if ready {
			return s, nil
		}
	}
	return nil, fmt.Errorf("apps: %s never started listening", app.Name)
}

// Version returns the currently-active release.
func (s *Server) Version() Version { return s.App.Versions[s.VersionIdx] }

// Probe opens a fresh connection, sends the probe request, and returns the
// response line.
func (s *Server) Probe() (string, error) {
	conn, err := s.VM.Net.Connect(s.App.Port)
	if err != nil {
		return "", err
	}
	defer s.VM.Net.ClientClose(conn)
	if err := s.VM.Net.ClientSend(conn, s.App.ProbeRequest); err != nil {
		return "", err
	}
	for i := 0; i < 2000; i++ {
		s.VM.Step(5)
		if line, ok := s.VM.Net.ClientRecv(conn); ok {
			return line, nil
		}
	}
	return "", fmt.Errorf("apps: %s probe timed out", s.App.Name)
}

// VerifyActive probes and checks the active version banner.
func (s *Server) VerifyActive() error {
	line, err := s.Probe()
	if err != nil {
		return err
	}
	want := s.Version().Name
	if !strings.Contains(line, want) {
		return fmt.Errorf("apps: %s probe %q does not mention version %s", s.App.Name, line, want)
	}
	return nil
}

// DoBatch opens one connection per workload, plays the request lines,
// drains responses, and closes. It returns the number of responses read.
func (s *Server) DoBatch() (int, error) {
	replies, err := s.playBatch()
	return len(replies), err
}

// reply is one answered request of a batch.
type reply struct{ Request, Response string }

// playBatch is DoBatch keeping what was said: the answered requests in order
// (a request the server never answers, or one after it closed the
// connection, leaves no entry).
func (s *Server) playBatch() ([]reply, error) {
	lines := 0
	for _, w := range s.App.Workloads {
		lines += len(w.Lines)
	}
	got := make([]reply, 0, lines)
	for _, w := range s.App.Workloads {
		conn, err := s.VM.Net.Connect(w.Port)
		if err != nil {
			return got, err
		}
		for _, line := range w.Lines {
			if err := s.VM.Net.ClientSend(conn, line); err != nil {
				break // server closed mid-batch (QUIT)
			}
			for i := 0; i < 2000; i++ {
				s.VM.Step(2)
				if resp, ok := s.VM.Net.ClientRecv(conn); ok {
					got = append(got, reply{line, resp})
					s.Responses++
					break
				}
				if s.VM.Net.ClientClosed(conn) {
					break
				}
			}
			if s.VM.Net.ClientClosed(conn) {
				break
			}
		}
		s.VM.Net.ClientClose(conn)
		s.VM.Step(5)
	}
	return got, nil
}

// checkBatch plays one batch and compares it, line for line, with what a
// freshly started server of the same release answered (want). The one thing
// a live-updated server legitimately answers differently is a running count
// of its own history (Workload.Counters), compared up to the number.
func (s *Server) checkBatch(want []reply) error {
	got, err := s.playBatch()
	if err != nil {
		return err
	}
	counter := map[string]bool{}
	for _, w := range s.App.Workloads {
		for _, line := range w.Counters {
			counter[line] = true
		}
	}
	for i, w := range want {
		if i >= len(got) {
			return fmt.Errorf("apps: %s %s answered %d of %d batch lines; %q went unanswered",
				s.App.Name, s.Version().Name, len(got), len(want), w.Request)
		}
		g := got[i]
		if counter[w.Request] {
			g.Response = strings.TrimRight(g.Response, "0123456789")
			w.Response = strings.TrimRight(w.Response, "0123456789")
		}
		if g != w {
			return fmt.Errorf("apps: %s %s answered %q with %q, a fresh %s answers %q with %q",
				s.App.Name, s.Version().Name, g.Request, g.Response, s.Version().Name, w.Request, w.Response)
		}
	}
	if len(got) > len(want) {
		return fmt.Errorf("apps: %s %s answered %d batch lines, a fresh one %d", s.App.Name, s.Version().Name, len(got), len(want))
	}
	return nil
}

// HoldConnections opens n persistent connections on the primary port and
// sends one request on each so the server's per-connection handler threads
// are alive and mid-session (their run() frames pinned on stack). It
// returns the connection ids; close them to quiesce.
func (s *Server) HoldConnections(n int) ([]int64, error) {
	var conns []int64
	for i := 0; i < n; i++ {
		conn, err := s.VM.Net.Connect(s.App.Port)
		if err != nil {
			return conns, err
		}
		if err := s.VM.Net.ClientSend(conn, s.App.ProbeRequest); err != nil {
			return conns, err
		}
		conns = append(conns, conn)
	}
	// Let the handlers consume the requests and block on the next line.
	for i := 0; i < 200; i++ {
		s.VM.Step(5)
	}
	for _, c := range conns {
		for {
			if _, ok := s.VM.Net.ClientRecv(c); !ok {
				break
			}
		}
	}
	return conns, nil
}

// ReleaseConnections closes held connections and lets handlers drain.
func (s *Server) ReleaseConnections(conns []int64) {
	for _, c := range conns {
		s.VM.Net.ClientClose(c)
	}
	for i := 0; i < 200; i++ {
		s.VM.Step(5)
	}
}

// ApplyNext requests the update to the next version and drives the VM
// until it resolves, pumping a light request load meanwhile (so return
// barriers can fire: connections keep opening and closing).
func (s *Server) ApplyNext(opts core.Options, underLoad bool) (*core.Result, error) {
	spec, err := s.App.Spec(s.VersionIdx)
	if err != nil {
		return nil, err
	}
	pending, err := s.Engine.RequestUpdate(spec, opts)
	if err != nil {
		return nil, err
	}
	for !pending.Done() {
		if underLoad {
			if _, err := s.DoBatch(); err != nil {
				return nil, err
			}
		}
		s.VM.Step(10)
	}
	res := pending.Result()
	if res.Outcome == core.Applied {
		s.VersionIdx++
	}
	return res, nil
}

// MatrixEntry records one update attempt for the §4 experience experiment.
type MatrixEntry struct {
	App      string
	From, To string
	Outcome  core.Outcome
	Stats    core.Stats
	BodyOnly bool
	// Quiesced marks updates that aborted under load and applied after
	// connections drained (the CrossFTP 1.07→1.08 behaviour).
	Quiesced bool
	ProbeOK  bool
	Note     string
}

// RunMatrix walks an application's whole version stream, applying every
// update to the live server under load, reproducing the paper's §4
// experience: which updates apply immediately, which need return barriers
// or OSR, which need a quiet server, and which abort because a changed
// method never leaves the stack. Aborted versions are reached by a restart,
// as the paper's authors had to.
//
// Every batch played while no update is pending — the warm-up before each
// update and one last batch on the final release — must draw, line for line,
// the responses a freshly started server of that release gives: a release
// reached by a live update that answers differently (an untransformed static,
// a dead handler thread) fails the walk. The reference costs one extra launch
// and batch per release, inside whatever times the walk.
//
// Optional checks run against the server's VM after every update attempt
// resolves (applied, quiesced-then-applied, or aborted-and-restarted);
// tests pass storm.CheckVM here so the whole-VM invariant sweep covers all
// 22 real server transitions, not just generated storm programs.
func RunMatrix(app *App, heapWords int, checks ...func(*vm.VM) error) ([]MatrixEntry, error) {
	return RunMatrixOpts(app, LaunchOptions{HeapWords: heapWords}, checks...)
}

// RunMatrixOpts is RunMatrix with full control over the VM configuration —
// the concurrent-mark matrix run uses it.
func RunMatrixOpts(app *App, opts LaunchOptions, checks ...func(*vm.VM) error) ([]MatrixEntry, error) {
	s, err := Launch(app, opts)
	if err != nil {
		return nil, err
	}
	// fresh plays one batch on a newly launched server of release i: the
	// reference the walked server's batches are held to.
	fresh := func(i int) ([]reply, error) {
		ref := opts
		ref.Version = i
		r, err := Launch(app, ref)
		if err != nil {
			return nil, err
		}
		return r.playBatch()
	}
	var entries []MatrixEntry
	for i := 0; i < app.UpdateCount(); i++ {
		target := app.Versions[i+1]
		entry := MatrixEntry{
			App:      app.Name,
			From:     app.Versions[i].Name,
			To:       target.Name,
			BodyOnly: target.BodyOnly,
		}
		// Warm the server and pin handler threads like a busy deployment.
		want, err := fresh(i)
		if err != nil {
			return nil, err
		}
		for b := 0; b < 3; b++ {
			if err := s.checkBatch(want); err != nil {
				return nil, fmt.Errorf("%s warmup before %s: %w", app.Name, target.Name, err)
			}
		}
		held, err := s.HoldConnections(2)
		if err != nil {
			return nil, err
		}

		// OSROpt: a held session parks its handler in run(), and a handler
		// that has served OptThreshold connections is opt code, whose
		// inlined callees' layouts go stale with most releases. Such a frame
		// rests at a mappable pc (all three handlers call the blocking read
		// from run() itself, outside any inlined body);
		// the paper's engine would wait for the session to end instead, and
		// the outcome would depend on how many connections this server has
		// taken — under Concurrent as many as fit beside the traces —
		// not on the release (TestHeldOptHandlerNeedsOSROpt).
		res, err := s.ApplyNext(core.Options{MaxAttempts: 60, OSROpt: true}, true)
		if err != nil {
			return nil, fmt.Errorf("%s update to %s: %w", app.Name, target.Name, err)
		}
		entry.Outcome = res.Outcome
		entry.Stats = res.Stats

		if res.Outcome == core.Aborted && target.NeedsQuiesce {
			// The CrossFTP case: drain sessions and retry.
			s.ReleaseConnections(held)
			held = nil
			res, err = s.ApplyNext(core.Options{MaxAttempts: 200}, false)
			if err != nil {
				return nil, err
			}
			entry.Outcome = res.Outcome
			entry.Stats = res.Stats
			entry.Quiesced = true
			entry.Note = "applied after quiescing active sessions"
		}
		if held != nil {
			s.ReleaseConnections(held)
		}

		switch {
		case res.Outcome == core.Applied:
			if err := s.VerifyActive(); err != nil {
				return nil, err
			}
			entry.ProbeOK = true
			if entry.Note == "" {
				switch {
				case res.Stats.OSRFrames > 0 && res.Stats.BarriersInstalled > 0:
					entry.Note = "return barriers + OSR"
				case res.Stats.OSRFrames > 0:
					entry.Note = "on-stack replacement"
				case res.Stats.BarriersInstalled > 0:
					entry.Note = "return barriers"
				default:
					entry.Note = "immediate safe point"
				}
			}
		case res.Outcome == core.Aborted && target.ExpectAbort:
			entry.Note = "changed method never leaves the stack; restarted"
			// Restart at the new version, as the paper's deployment would.
			restart := opts
			restart.Version = i + 1
			s, err = Launch(app, restart)
			if err != nil {
				return nil, err
			}
			if err := s.VerifyActive(); err != nil {
				return nil, err
			}
			entry.ProbeOK = true
		default:
			// Not an outcome this release's history expects. Stop here with the
			// update's own error: carrying on would leave the server one release
			// behind and fail the next warm-up on a response mismatch instead.
			return nil, fmt.Errorf("%s update to %s: unexpected outcome %v after %d attempts: %v",
				app.Name, target.Name, res.Outcome, res.Stats.Attempts, res.Err)
		}
		for _, check := range checks {
			if err := check(s.VM); err != nil {
				return nil, fmt.Errorf("%s after %s→%s: %w", app.Name, entry.From, entry.To, err)
			}
		}
		entries = append(entries, entry)
	}
	want, err := fresh(s.VersionIdx)
	if err != nil {
		return nil, err
	}
	if err := s.checkBatch(want); err != nil {
		return nil, err
	}
	return entries, nil
}

// SpecFor exposes App.Spec for external tools (cmd/upt).
func SpecFor(app *App, i int) (*upt.Spec, error) { return app.Spec(i) }
