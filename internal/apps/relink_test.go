package apps

import (
	"bytes"
	"testing"

	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// replayWindow is what one update request of a replayed history did, counted
// from just before the request to the moment it resolved.
type replayWindow struct {
	key                string
	outcome            core.Outcome
	stats              core.Stats
	base, opt, relinks int
}

// replayHistories replays the three apps' release histories the way the
// bench of record's release-replay pass does: before each update three warm
// batches and two held sessions, then the request (60 safe-point attempts)
// pumped under request load; a release that aborts for quiescence is
// requested again (200 attempts, no load) once the sessions are closed, and
// one that aborts otherwise is reached by a restart. It returns every
// request's window, 23 in all. launched, if set, sees every server the
// replay starts before it serves a request.
func replayHistories(t *testing.T, launched func(*Server)) []replayWindow {
	t.Helper()
	launch := func(app *App, version int) *Server {
		s, err := Launch(app, LaunchOptions{HeapWords: 1 << 18, Version: version})
		if err != nil {
			t.Fatal(err)
		}
		if launched != nil {
			launched(s)
		}
		return s
	}
	var windows []replayWindow
	request := func(s *Server, key string, attempts int, underLoad bool) *core.Result {
		jit := s.VM.JIT
		w := replayWindow{key: key}
		spec, err := s.App.Spec(s.VersionIdx)
		if err != nil {
			t.Fatal(err)
		}
		w.base, w.opt, w.relinks = jit.BaseCompiles, jit.OptCompiles, jit.Relinks
		p, err := s.Engine.RequestUpdate(spec, core.Options{MaxAttempts: attempts})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		for !p.Done() {
			if underLoad {
				if _, err := s.DoBatch(); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
			}
			s.VM.Step(10)
		}
		res := p.Result()
		w.outcome, w.stats = res.Outcome, res.Stats
		w.base, w.opt, w.relinks = jit.BaseCompiles-w.base, jit.OptCompiles-w.opt, jit.Relinks-w.relinks
		windows = append(windows, w)
		if res.Outcome == core.Applied {
			s.VersionIdx++
		}
		return res
	}
	for _, app := range All() {
		s := launch(app, 0)
		for i := 0; i < app.UpdateCount(); i++ {
			target := app.Versions[i+1]
			key := app.Name + " " + app.Versions[i].Name + "→" + target.Name
			for b := 0; b < 3; b++ {
				if _, err := s.DoBatch(); err != nil {
					t.Fatal(err)
				}
			}
			held, err := s.HoldConnections(2)
			if err != nil {
				t.Fatal(err)
			}
			res := request(s, key, 60, true)
			if res.Outcome == core.Aborted && target.NeedsQuiesce {
				s.ReleaseConnections(held)
				held = nil
				res = request(s, key+" (quiesced)", 200, false)
			}
			if held != nil {
				s.ReleaseConnections(held)
			}
			if res.Outcome != core.Applied {
				s = launch(app, i+1)
			}
			if err := s.VerifyActive(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
	}
	return windows
}

// TestRelinkIsACompile holds every piece of code an update leaves without
// compiling it — relinked for a method's next call to install, or installed
// for an OSR frame — to a fresh compile of the same method at the same level
// against the registry the update left: over all 22 release updates,
// replayed as release-replay replays them, the two render identically, field
// by field.
func TestRelinkIsACompile(t *testing.T) {
	checked, relinks := 0, 0
	replayHistories(t, func(s *Server) {
		var before map[*rt.Method]*rt.CompiledMethod
		handle := s.VM.UpdateHandler
		s.VM.UpdateHandler = func() bool {
			before = make(map[*rt.Method]*rt.CompiledMethod)
			for _, m := range s.VM.Reg.Methods() {
				before[m] = m.Compiled
			}
			return handle()
		}
		relinks0 := 0
		s.Engine.AfterUpdate = func(res *core.Result) {
			relinks += s.VM.JIT.Relinks - relinks0
			relinks0 = s.VM.JIT.Relinks
			if res.Outcome != core.Applied {
				return
			}
			for _, m := range s.VM.Reg.Methods() {
				if s.VM.Reg.LookupClass(m.Class.Name) != m.Class {
					continue // an old version, or the transformer class the update ran and dropped
				}
				for _, cm := range []*rt.CompiledMethod{m.Relinked, m.Compiled} {
					if cm == nil || cm == before[m] {
						continue
					}
					if cm.Invalid || cm.Method != m {
						t.Errorf("%s: left invalid code, or code for %s", m.FullName(), cm.Method.FullName())
						continue
					}
					fresh, err := s.VM.JIT.Compile(m, cm.Level)
					if err != nil {
						t.Fatal(err)
					}
					var got, want bytes.Buffer
					renderCompiled(&got, cm)
					renderCompiled(&want, fresh)
					if got.String() != want.String() {
						t.Errorf("%s %s: code the update left is not a compile\nleft:\n%s\ncompiled:\n%s",
							s.App.Name, m.FullName(), got.String(), want.String())
					}
					checked++
				}
			}
		}
	})
	t.Logf("%d pieces of code checked, %d relinks", checked, relinks)
	if relinks < 25 {
		t.Errorf("%d relinks over the 22 updates; want at least 25", relinks)
	}
}

// TestUpdateWindowCompiles pins the code an update's latency pays for: the
// base compiles, opt compiles and relinks inside the 23 request → resolved
// windows of a release-replay pass (22 updates and the CrossFTP retry). The
// counts are exact: the replay is deterministic. Before relinking a pass
// compiled 86 methods at base and 12 at opt inside its windows; 33 of those
// base compiles reproduced the code they replaced up to the classes and
// static slots it names, and all but one are relinks now. The install's own
// accounting (invalidations by reason, inline-cache entries flushed, OSR
// frames) and the outcomes, safe-point attempts and barriers release-replay
// reports are what they were before relinking, and the relinks reach the
// metrics registry.
func TestUpdateWindowCompiles(t *testing.T) {
	var sum replayWindow
	var stats core.Stats
	var servers []*Server
	windows := replayHistories(t, func(s *Server) {
		s.VM.AttachObs(nil, obs.NewRegistry())
		servers = append(servers, s)
	})
	for _, w := range windows {
		t.Logf("%-40s %-8v base %2d opt %2d relinks %2d", w.key, w.outcome, w.base, w.opt, w.relinks)
		sum.base += w.base
		sum.opt += w.opt
		sum.relinks += w.relinks
		stats.InvalidatedMethods += w.stats.InvalidatedMethods
		stats.InvalidatedBody += w.stats.InvalidatedBody
		stats.InvalidatedInline += w.stats.InvalidatedInline
		stats.InvalidatedLayout += w.stats.InvalidatedLayout
		stats.ICFlushed += w.stats.ICFlushed
		stats.OSRFrames += w.stats.OSRFrames
	}
	if len(windows) != 23 || sum.base != 54 || sum.opt != 12 || sum.relinks != 43 {
		t.Errorf("%d windows: %d base compiles, %d opt, %d relinks; want 23 windows: 54, 12, 43",
			len(windows), sum.base, sum.opt, sum.relinks)
	}
	if stats.InvalidatedMethods != 97 || stats.InvalidatedBody != 34 || stats.InvalidatedInline != 7 ||
		stats.InvalidatedLayout != 56 || stats.ICFlushed != 197 || stats.OSRFrames != 6 {
		t.Errorf("invalidated %d (body %d, inline %d, layout %d), %d IC entries flushed, %d OSR frames; "+
			"want 97 (34, 7, 56), 197, 6", stats.InvalidatedMethods, stats.InvalidatedBody,
			stats.InvalidatedInline, stats.InvalidatedLayout, stats.ICFlushed, stats.OSRFrames)
	}
	// What release-replay reports per update is its last request's result:
	// 22 updates, 20 applied, 140 attempts (6.364 an update), 5 barriers.
	var applied, attempts, barriers int
	for i, w := range windows {
		if i+1 < len(windows) && windows[i+1].key == w.key+" (quiesced)" {
			continue
		}
		if w.outcome == core.Applied {
			applied++
		}
		attempts += w.stats.Attempts
		barriers += w.stats.BarriersInstalled
	}
	if applied != 20 || attempts != 140 || barriers != 5 {
		t.Errorf("per update: %d applied, %d safe-point attempts, %d barriers; want 20, 140, 5", applied, attempts, barriers)
	}
	var published, relinks int64
	for _, s := range servers {
		s.VM.PublishMetrics()
		published += s.VM.Metrics.Counter("govolve_jit_relinks_total").Value()
		relinks += int64(s.VM.JIT.Relinks)
	}
	if published != relinks || relinks < int64(sum.relinks) {
		t.Errorf("%s = %d, want every relink (%d)", "govolve_jit_relinks_total", published, relinks)
	}
}
