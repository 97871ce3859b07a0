package main

import (
	"fmt"
	"strings"
	"time"

	"govolve/internal/apps"
	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/verifier"
	"govolve/internal/vm"
)

// release-replay: one pass applies all 22 real updates of the three apps'
// release histories to live servers under load with two held sessions — the
// procedure of apps.RunMatrix, spelled out here so that a span can sit on
// every layer boundary — including assembling both versions, preparing the
// update specification, and the two restarts past the releases that cannot
// be applied. These are the control-plane layers (asm, verifier, upt, jit,
// VM construction, safe-point reaching, install) that the other three
// workloads never time.

const (
	replayHeapWords    = 1 << 18
	replayHeldSessions = 2
)

// replayUpdate is what one update of one pass did.
type replayUpdate struct {
	key     string // "webserver 5.1.0→5.1.1"
	outcome core.Outcome
	// quiesced: aborted under load, applied once the sessions were closed.
	quiesced bool
	apply    time.Duration // first request → applied
	stats    core.Stats
	request  time.Duration
	batches  int
}

// replayPass is what one pass over the three release histories did.
type replayPass struct {
	wall     time.Duration
	updates  []replayUpdate
	launches int
	// Per-layer time the driver measured around its calls.
	assemble, prepare, request, launch time.Duration
	lines                              int
	specs                              int
	instructions                       int64
}

type replayer struct {
	orc *oracles
	out *outcome
	rec *recorder
}

func (r *replayer) assemble(pass *replayPass, id int64, file, src string) (prog *classfile.Program, err error) {
	pass.assemble += r.rec.timed(spAsmAssemble, id, func() { prog, err = asm.AssembleProgram(file, src) })
	pass.lines += strings.Count(src, "\n")
	return prog, err
}

// spec prepares the update from version i to i+1 the way apps.App.Spec
// does, with the assembler and the UPT timed apart.
func (r *replayer) spec(pass *replayPass, id int64, app *apps.App, i int) (*upt.Spec, error) {
	from, to := app.Versions[i], app.Versions[i+1]
	old, err := r.assemble(pass, id, app.Name+"-"+from.Name+".jva", from.Source)
	if err != nil {
		return nil, err
	}
	next, err := r.assemble(pass, id, app.Name+"-"+to.Name+".jva", to.Source)
	if err != nil {
		return nil, err
	}
	var custom []*classfile.Class
	if to.Transformers != "" {
		pass.assemble += r.rec.timed(spAsmAssemble, id, func() { custom, err = asm.Assemble("transformers.jva", to.Transformers) })
		pass.lines += strings.Count(to.Transformers, "\n")
		if err != nil {
			return nil, err
		}
	}
	var spec *upt.Spec
	pass.prepare += r.rec.timed(spUptPrepare, id, func() {
		spec, err = upt.Prepare(from.Tag, old, next)
		if err == nil && custom != nil {
			for _, m := range custom[0].Methods {
				spec.OverrideTransformer(m)
			}
		}
	})
	pass.specs++
	return spec, err
}

func (r *replayer) launch(pass *replayPass, id int64, app *apps.App, version int) (s *apps.Server, err error) {
	pass.launch += r.rec.timed(spAppsLaunch, id, func() {
		s, err = apps.Launch(app, apps.LaunchOptions{HeapWords: replayHeapWords, Version: version})
	})
	pass.launches++
	return s, err
}

// warmBatch plays one request batch on a server with no update pending and
// checks that every line was answered. (While an update is pending, handler
// threads may be parked at return barriers and lines go unanswered, so the
// batches pumped during an update are not checked.)
func (r *replayer) warmBatch(s *apps.Server) error {
	got, err := s.DoBatch()
	if err != nil {
		return err
	}
	if !r.orc.batchUnchecked[s.App.Name+" "+s.Version().Name] {
		r.out.check(got == r.orc.batchResponses[s.App.Name])
	}
	return nil
}

// probe checks the server answers with the banner of the given release.
func (r *replayer) probe(id int64, s *apps.Server) error {
	r.rec.begin(spAppsProbe, id)
	line, err := s.Probe()
	r.rec.end()
	if err != nil {
		return err
	}
	r.out.check(line == r.orc.probe[s.App.Name+" "+s.Version().Name])
	return nil
}

// apply requests one update and drives the VM until it resolves, under a
// light request load when asked (so return barriers can fire).
func (r *replayer) apply(pass *replayPass, id int64, s *apps.Server, spec *upt.Spec, maxAttempts int, underLoad bool, u *replayUpdate) (*core.Result, error) {
	var pending *core.Pending
	var err error
	d := r.rec.timed(spCoreRequest, id, func() {
		pending, err = s.Engine.RequestUpdate(spec, core.Options{MaxAttempts: maxAttempts})
	})
	pass.request += d
	u.request += d
	if err != nil {
		return nil, err
	}
	r.rec.begin(spAppsPump, id)
	for !pending.Done() {
		if underLoad {
			if _, err := s.DoBatch(); err != nil {
				r.rec.end()
				return nil, err
			}
			u.batches++
		}
		s.VM.Step(10)
	}
	r.rec.end()
	res := pending.Result()
	if res.Outcome == core.Applied {
		s.VersionIdx++
	}
	return res, nil
}

// app replays one application's whole release history.
func (r *replayer) app(pass *replayPass, passID int64, app *apps.App) error {
	s, err := r.launch(pass, passID, app, 0)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(app.Versions); i++ {
		target := app.Versions[i+1]
		id := passID*100 + int64(len(pass.updates))
		u := replayUpdate{key: fmt.Sprintf("%s %s→%s", app.Name, app.Versions[i].Name, target.Name)}
		ins0 := s.VM.Stats().Instructions
		// Warm the server and pin handler threads like a busy deployment.
		for b := 0; b < 3; b++ {
			if err := r.warmBatch(s); err != nil {
				return err
			}
		}
		held, err := s.HoldConnections(replayHeldSessions)
		if err != nil {
			return err
		}
		spec, err := r.spec(pass, id, app, i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := r.apply(pass, id, s, spec, 60, true, &u)
		if err != nil {
			return fmt.Errorf("%s: %w", u.key, err)
		}
		if res.Outcome == core.Aborted && target.NeedsQuiesce {
			// The CrossFTP case: drain the sessions and retry.
			s.ReleaseConnections(held)
			held = nil
			res, err = r.apply(pass, id, s, spec, 200, false, &u)
			if err != nil {
				return fmt.Errorf("%s: %w", u.key, err)
			}
			u.quiesced = true
		}
		u.apply = time.Since(t0)
		u.outcome, u.stats = res.Outcome, res.Stats
		if held != nil {
			s.ReleaseConnections(held)
		}
		want, known := r.orc.updates[u.key]
		r.out.check(known && want.outcome == u.outcome && want.quiesced == u.quiesced)
		pass.instructions += s.VM.Stats().Instructions - ins0
		if res.Outcome != core.Applied {
			// The changed method never leaves the stack: restart at the
			// new release, as the paper's authors had to.
			if s, err = r.launch(pass, id, app, i+1); err != nil {
				return err
			}
		}
		if err := r.probe(id, s); err != nil {
			return fmt.Errorf("%s: %w", u.key, err)
		}
		pass.updates = append(pass.updates, u)
	}
	return nil
}

func (r *replayer) pass(id int64) (*replayPass, error) {
	pass := &replayPass{}
	r.rec.begin(spRun, id)
	t0 := time.Now()
	for _, app := range apps.All() {
		if err := r.app(pass, id, app); err != nil {
			r.rec.end()
			return nil, err
		}
	}
	pass.wall = time.Since(t0)
	r.rec.end()
	return pass, nil
}

// layerProbes times the layers a pass only enters from inside other calls,
// by calling them directly on every release of every app: the verifier on
// the assembled program, and the base compiler on every method of the
// loaded classes. They run in the traced phase, outside the passes.
func (r *replayer) layerProbes(verifyMs, compileMs *series) (methods int, err error) {
	var verify, compile time.Duration
	for _, app := range apps.All() {
		for i := range app.Versions {
			prog, err := app.Program(i)
			if err != nil {
				return 0, err
			}
			// VerifyProgram resolves names in the program alone, so the
			// bootstrap classes are assembled in with it.
			whole, err := asm.AssembleProgram(app.Name+"-whole.jva", vm.BootstrapSource+app.Versions[i].Source)
			if err != nil {
				return 0, err
			}
			verify += r.rec.timed(spVerify, int64(i), func() { err = verifier.VerifyProgram(whole) })
			if err != nil {
				return 0, err
			}
			s, err := apps.Launch(app, apps.LaunchOptions{HeapWords: replayHeapWords, Version: i})
			if err != nil {
				return 0, err
			}
			for _, def := range prog.Sorted() {
				for _, m := range s.VM.Reg.LookupClass(def.Name).DeclaredMethods() {
					if m.Def.Native {
						continue
					}
					compile += r.rec.timed(spJitCompile, int64(i), func() { _, err = s.VM.JIT.Compile(m, rt.Base) })
					if err != nil {
						return 0, err
					}
					methods++
				}
			}
		}
	}
	verifyMs.addDur(verify)
	compileMs.addDur(compile)
	return methods, nil
}

func runReleaseReplay(cfg config, orc *oracles) (*outcome, error) {
	// Set-up is a pass nobody times: it fills the Go heap and the caches a
	// steady sequence of passes runs with.
	out := newOutcome()
	r := &replayer{orc: orc, out: out}
	_, setupS, err := timeSetups(func() (*replayPass, error) { return r.pass(0) })
	if err != nil {
		return nil, err
	}

	var wallMs, assembleMs, prepareMs, requestMs, launchMs, safepointMs series
	applyMs := map[string]*series{}
	var lastPass *replayPass
	var rss series
	b := cfg.budget(cfg.phase(tracedUntracedShare), 2)
	for id := int64(1); b.more(); id++ {
		pass, err := r.pass(id)
		if err != nil {
			return nil, err
		}
		wallMs.addDur(pass.wall)
		assembleMs.addDur(pass.assemble)
		prepareMs.addDur(pass.prepare)
		requestMs.addDur(pass.request)
		launchMs.add(ms(pass.launch) / float64(pass.launches))
		var safepoint time.Duration
		for _, u := range pass.updates {
			safepoint += u.stats.SafePointDelay
			if u.outcome != core.Applied {
				continue
			}
			if applyMs[u.key] == nil {
				applyMs[u.key] = &series{}
			}
			applyMs[u.key].addDur(u.apply)
		}
		safepointMs.addDur(safepoint)
		lastPass = pass
		rss.add(residentMB())
	}
	var applySum float64
	for _, s := range applyMs {
		applySum += s.floor()
	}
	if !cfg.trace {
		out.finishUntraced(cfg, setupS, wallMs, rss, wallMs.floor(), applySum)
		return out, nil
	}

	rec := newRecorder()
	r.rec = rec
	var tracedMs, verifyMs, compileMs series
	methods := 0
	for i := 0; i < cfg.scale(5, 1); i++ {
		if methods, err = r.layerProbes(&verifyMs, &compileMs); err != nil {
			return nil, err
		}
	}
	probeSelf := rec.selfTotal()
	b = cfg.budget(cfg.phase(tracedTracedShare+tracedObsShare), 2)
	for id := int64(1_000_000); b.more(); id++ {
		pass, err := r.pass(id)
		if err != nil {
			return nil, err
		}
		tracedMs.addDur(pass.wall)
		out.tracedWall += pass.wall
	}
	r.rec = nil
	out.tracedWall += probeSelf

	var applied, aborted, attempts, osr, barriers, batches int
	for _, u := range lastPass.updates {
		if u.outcome == core.Applied {
			applied++
		} else if want := orc.updates[u.key]; want.outcome == u.outcome {
			aborted++
		}
		attempts += u.stats.Attempts
		osr += u.stats.OSRFrames
		barriers += u.stats.BarriersInstalled
		batches += u.batches
	}
	updates := float64(len(lastPass.updates))
	out.set("replay_ms", wallMs.floor())
	out.set("replay_ms.median", wallMs.median())
	out.set("update_apply_ms", applySum)
	out.set("core.applied", float64(applied))
	out.set("core.aborted_expected", float64(aborted))
	out.set("core.attempts_per_update", ratio(float64(attempts), updates))
	out.set("core.osr_frames", float64(osr))
	out.set("core.barriers_installed", float64(barriers))
	out.set("core.request_ms", requestMs.floor())
	out.set("core.safepoint_ms", safepointMs.floor())
	out.set("apps.load_batches_per_update", ratio(float64(batches), updates))
	out.set("asm.assemble_ms", assembleMs.floor())
	out.set("asm.lines_per_s", ratio(float64(lastPass.lines), assembleMs.floor()/1000))
	out.set("upt.prepare_ms", prepareMs.floor())
	out.set("upt.specs", float64(lastPass.specs))
	out.set("verifier.verify_ms", verifyMs.floor())
	out.set("jit.compile_ms", compileMs.floor())
	out.set("jit.methods", float64(methods))
	out.set("vm.launch_ms", launchMs.floor())
	out.set("vm.ins_per_s", ratio(float64(lastPass.instructions), wallMs.floor()/1000))
	if err := out.finishTraced(cfg, wallMs, tracedMs, rec); err != nil {
		return nil, err
	}
	return out, nil
}
