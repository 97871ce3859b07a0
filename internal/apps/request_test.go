package apps

import (
	"runtime"
	"testing"
)

// serveWindow plays conns connections of the app's primary workload lines
// through the NetSim client API, stepping the VM the way the web-steady
// bench's client does, and returns the requests answered.
func serveWindow(tb testing.TB, s *Server, conns int) int {
	tb.Helper()
	net, answered := s.VM.Net, 0
	for c := 0; c < conns; c++ {
		conn, err := net.Connect(s.App.Port)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range s.App.Workloads[0].Lines {
			if err := net.ClientSend(conn, line); err != nil {
				tb.Fatal(err)
			}
			for i := 0; i < 5000; i++ {
				s.VM.Step(2)
				if _, ok := net.ClientRecv(conn); ok {
					answered++
					break
				}
				if net.ClientClosed(conn) {
					break
				}
			}
		}
		net.ClientClose(conn)
		s.VM.Step(5)
	}
	return answered
}

// TestRequestPathMallocs: webserver 5.1.6 serving a window of 1 000
// connections of five requests each — the web-steady request path whole:
// NetSim, scheduler, handler threads, String and Net natives, calls — makes
// at most 0.3 Go allocations per request. It is what the bench reports as
// vm.go_mallocs_per_req; TestNativeCallZeroAlloc covers the call alone.
func TestRequestPathMallocs(t *testing.T) {
	app := Webserver()
	if app.Versions[6].Name != "5.1.6" {
		t.Fatalf("webserver version 6 is %s, want 5.1.6", app.Versions[6].Name)
	}
	s, err := Launch(app, LaunchOptions{Version: 6})
	if err != nil {
		t.Fatal(err)
	}
	const conns = 1000
	serveWindow(t, s, conns) // the adaptive compiler settles
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := serveWindow(t, s, conns)
	runtime.ReadMemStats(&after)
	if want := conns * len(app.Workloads[0].Lines); n != want {
		t.Fatalf("%d of %d requests answered", n, want)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%.3f Go mallocs per request over %d requests", perReq, n)
	if perReq > 0.3 {
		t.Fatalf("%.3f Go mallocs per request, want <= 0.3", perReq)
	}
}
