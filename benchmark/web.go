package main

import (
	"fmt"
	"sort"
	"time"

	"govolve/internal/apps"
	"govolve/internal/core"
	"govolve/internal/obs"
)

// web-steady: the paper's Fig. 5. Webserver 5.1.6 reached by a live
// 5.1.5→5.1.6 update serves windows of requests, interleaved window for
// window with a stock 5.1.6 VM that has no update handler. One client,
// closed loop: the driver steps the VM itself, so a slower VM is offered
// less load by construction.

const (
	webHeapWords   = 1 << 20
	webFromVersion = 5 // 5.1.5
	webLinesPerCon = 5
)

// webLines is the request mix of one connection, sent in seeded order.
var webLines = [webLinesPerCon]string{"GET /", "GET /about", "GET /news", "GET /missing", "GET /"}

type webState struct {
	updated, stock *apps.Server
}

func webApp() (*apps.App, error) {
	for _, app := range apps.All() {
		if app.Name == "webserver" {
			if app.Versions[webFromVersion].Name != "5.1.5" || app.Versions[webFromVersion+1].Name != "5.1.6" {
				return nil, fmt.Errorf("webserver release history changed: version %d is %s", webFromVersion, app.Versions[webFromVersion].Name)
			}
			return app, nil
		}
	}
	return nil, fmt.Errorf("no webserver app")
}

// webSetup launches both servers, applies the live update to one, and
// plays one window nobody times on each: the adaptive compiler and trace
// promotion settle before the first timed window.
func webSetup(warm []uint8, expect map[string]string, account func(webWindow)) (webState, error) {
	var st webState
	app, err := webApp()
	if err != nil {
		return st, err
	}
	st.updated, err = apps.Launch(app, apps.LaunchOptions{Version: webFromVersion, HeapWords: webHeapWords})
	if err != nil {
		return st, err
	}
	res, err := st.updated.ApplyNext(core.Options{MaxAttempts: 500}, true)
	if err != nil {
		return st, err
	}
	if res.Outcome != core.Applied {
		return st, fmt.Errorf("5.1.5→5.1.6 update: %v (%v)", res.Outcome, res.Err)
	}
	st.stock, err = apps.Launch(app, apps.LaunchOptions{Version: webFromVersion + 1, HeapWords: webHeapWords})
	if err != nil {
		return st, err
	}
	st.stock.VM.UpdateHandler = nil // a stock VM has no DSU engine
	for _, s := range []*apps.Server{st.updated, st.stock} {
		if err := s.VerifyActive(); err != nil {
			return st, err
		}
		c := webClient{srv: s, expect: expect}
		w, err := c.window(warm)
		if err != nil {
			return st, err
		}
		account(w)
	}
	return st, nil
}

// webPlan is the line order of every connection of one window pair.
func webPlan(r *rng, conns int) []uint8 {
	plan := make([]uint8, conns*webLinesPerCon)
	for c := 0; c < conns; c++ {
		p := plan[c*webLinesPerCon : (c+1)*webLinesPerCon]
		for i := range p {
			p[i] = uint8(i)
		}
		for i := len(p) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	return plan
}

type webWindow struct {
	wall     time.Duration
	requests int
	failed   int
	netCalls int64
	p50ms    float64
	p99ms    float64
}

// webClient drives one server and owns the latency scratch buffer.
type webClient struct {
	srv    *apps.Server
	expect map[string]string
	rec    *recorder
	lat    []float64
	nextID int64
}

// window plays one window of requests and checks every response line.
func (c *webClient) window(plan []uint8) (webWindow, error) {
	var w webWindow
	net, machine, rec := c.srv.VM.Net, c.srv.VM, c.rec
	port := c.srv.App.Port
	c.lat = c.lat[:0]
	rec.begin(spWindow, c.nextID)
	t0 := time.Now()
	for at := 0; at < len(plan); at += webLinesPerCon {
		rec.begin(spNetConnect, c.nextID)
		conn, err := net.Connect(port)
		rec.end()
		w.netCalls++
		if err != nil {
			rec.end()
			return w, err
		}
		for _, li := range plan[at : at+webLinesPerCon] {
			line := webLines[li]
			c.nextID++
			rec.begin(spRequest, c.nextID)
			q0 := time.Now()
			rec.begin(spNetSend, c.nextID)
			err := net.ClientSend(conn, line)
			rec.end()
			w.netCalls++
			var resp string
			got := false
			for i := 0; err == nil && i < 5000; i++ {
				rec.begin(spVMStep, c.nextID)
				machine.Step(2)
				rec.end()
				rec.begin(spNetRecv, c.nextID)
				resp, got = net.ClientRecv(conn)
				w.netCalls++
				closed := false
				if !got {
					closed = net.ClientClosed(conn)
					w.netCalls++
				}
				rec.end()
				if got || closed {
					break
				}
			}
			c.lat = append(c.lat, ms(time.Since(q0)))
			w.requests++
			if !got || resp != c.expect[line] {
				w.failed++
			}
			rec.end()
		}
		rec.begin(spNetClose, c.nextID)
		net.ClientClose(conn)
		rec.end()
		w.netCalls++
		rec.begin(spVMStep, c.nextID)
		machine.Step(5)
		rec.end()
	}
	w.wall = time.Since(t0)
	rec.end()
	sort.Float64s(c.lat)
	w.p50ms = series(c.lat).quantileSorted(0.50)
	w.p99ms = series(c.lat).quantileSorted(0.99)
	return w, nil
}

// alternate runs the two sides of a window pair, a first on even pairs and b
// first on odd ones, so neither side always follows the other.
func alternate(pair int, a, b func() error) error {
	if pair%2 == 1 {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	return b()
}

func runWebSteady(cfg config, orc *oracles) (*outcome, error) {
	out := newOutcome()
	conns := cfg.scale(1000, 10)
	planRNG := newRNG(cfg.seed, 1)
	account := func(w webWindow) {
		out.attempted += int64(w.requests)
		out.failed += int64(w.failed)
	}
	warm := webPlan(planRNG, conns)
	st, setupS, err := timeSetups(func() (webState, error) { return webSetup(warm, orc.web, account) })
	if err != nil {
		return nil, err
	}
	updated := &webClient{srv: st.updated, expect: orc.web}
	stock := &webClient{srv: st.stock, expect: orc.web}

	// Untraced phase: adjacent updated/stock windows on the same plan,
	// alternating which side goes first.
	var wallMs, p50, p99, pairRatio series
	var requests, netCalls int64
	var goAlloc goHeap
	guest0 := st.updated.VM.Stats()
	var rss series
	b := cfg.budget(cfg.phase(tracedUntracedShare), 6)
	for pair := 0; b.more(); pair++ {
		plan := webPlan(planRNG, conns)
		var wu, ws webWindow
		runUpdated := func() error {
			h0 := readGoHeap()
			wu, err = updated.window(plan)
			goAlloc = goAlloc.add(readGoHeap().sub(h0))
			return err
		}
		runStock := func() error {
			ws, err = stock.window(plan)
			return err
		}
		if err := alternate(pair, runUpdated, runStock); err != nil {
			return nil, err
		}
		account(wu)
		account(ws)
		wallMs.addDur(wu.wall)
		p50.add(wu.p50ms)
		p99.add(wu.p99ms)
		pairRatio.add(float64(ws.wall) / float64(wu.wall)) // equal requests: rate ratio updated÷stock
		requests += int64(wu.requests)
		netCalls += wu.netCalls
		rss.add(residentMB())
	}
	// Only the updated client ran on the updated VM, so its counters moved
	// by exactly the updated windows' work.
	guest := st.updated.VM.Stats().Delta(guest0)
	perWindow := float64(conns * webLinesPerCon)
	reqPerS := func(windowMs float64) float64 { return ratio(perWindow*1000, windowMs) }

	if !cfg.trace {
		out.finishUntraced(cfg, setupS, wallMs, rss, wallMs.floor(), p50.floor())
		return out, nil
	}

	// obs phase: the same windows with the flight recorder and the metrics
	// registry attached, against detached neighbours.
	var obsRatio series
	flight, registry := obs.NewRecorder(0), obs.NewRegistry()
	b = cfg.budget(cfg.phase(tracedObsShare), 2)
	for pair := 0; b.more(); pair++ {
		plan := webPlan(planRNG, conns)
		var on, off webWindow
		attached := func() error {
			st.updated.VM.AttachObs(flight, registry)
			on, err = updated.window(plan)
			st.updated.VM.AttachObs(nil, nil)
			return err
		}
		detached := func() error {
			off, err = updated.window(plan)
			return err
		}
		if err := alternate(pair, attached, detached); err != nil {
			return nil, err
		}
		account(on)
		account(off)
		obsRatio.add(float64(off.wall) / float64(on.wall))
	}

	// Traced phase: the updated VM alone, one span per call into a layer.
	rec := newRecorder()
	updated.rec = rec
	var tracedMs series
	b = cfg.budget(cfg.phase(tracedTracedShare), 3)
	for b.more() {
		w, err := updated.window(webPlan(planRNG, conns))
		if err != nil {
			return nil, err
		}
		account(w)
		tracedMs.addDur(w.wall)
		out.tracedWall += w.wall
	}
	updated.rec = nil

	n := float64(requests)
	out.set("req_per_s", reqPerS(wallMs.floor()))
	out.set("req_per_s.median", reqPerS(wallMs.median()))
	out.set("req_p99_us", p99.floor()*1000)
	out.set("dsu_steady_ratio", pairRatio.median())
	out.set("netsim.client_share", rec.layerShare("netsim"))
	out.set("netsim.calls_per_req", ratio(float64(netCalls), n))
	out.set("vm.step_share", rec.layerShare("vm"))
	out.set("vm.slices_per_req", ratio(float64(guest.Slices), n))
	out.set("vm.sched_scans_per_slice", ratio(float64(guest.SchedulerScans), float64(guest.Slices)))
	out.set("vm.wake_checks_per_scan", ratio(float64(guest.WakeChecks), float64(guest.SchedulerScans)))
	out.set("vm.threads_spawned_per_req", ratio(float64(guest.ThreadsSpawned), n))
	out.set("vm.ins_per_req", ratio(float64(guest.Instructions), n))
	out.set("vm.ins_per_s", ratio(float64(guest.Instructions), n)*reqPerS(wallMs.floor()))
	out.set("vm.go_mallocs_per_req", ratio(float64(goAlloc.mallocs), n))
	out.set("vm.go_bytes_per_req", ratio(float64(goAlloc.bytes), n))
	out.set("vm.go_gc_cycles_per_kreq", ratio(float64(goAlloc.gcCycles)*1000, n))
	out.set("vm.ic_hit_ratio", ratio(float64(guest.ICHits), float64(guest.ICHits+guest.ICMisses)))
	out.set("vm.trace_promotions", float64(guest.TracePromotions))
	out.set("vm.guest_allocs_per_req", ratio(float64(guest.AllocObjects+guest.AllocArrays), n))
	out.set("vm.gc_collections_per_kreq", ratio(float64(guest.GCCollections)*1000, n))
	out.set("obs.enabled_overhead_ratio", obsRatio.median())
	if err := out.finishTraced(cfg, wallMs, tracedMs, rec); err != nil {
		return nil, err
	}
	return out, nil
}
