package main

import "govolve/internal/core"

// Oracles: what the system's outputs must be, written down by hand or
// computed by an independent Go implementation — never read back from the
// system under test. Every mismatch counts as a failed operation. The
// tables are fields so that a test can hand a workload one deliberately
// wrong expectation and see the failure counted.

type updateExpect struct {
	outcome core.Outcome
	// quiesced: aborts while sessions are held, applies once they close.
	quiesced bool
}

type oracles struct {
	// web maps a request line to webserver 5.1.6's response line.
	web map[string]string
	// kernels are the Go reference implementations of the guest kernels.
	kernels map[string]func(kernelParams) int64
	// pauseOutcome is how the Table 1 update must end; pauseField is the
	// value field k of object i must still hold after it.
	pauseOutcome core.Outcome
	pauseField   func(seed int64, i, k int) int64
	// updates is the expected outcome of each of the 22 releases' updates.
	updates map[string]updateExpect
	// probe maps "app release" to the response to the app's probe request.
	probe map[string]string
	// batchResponses is the number of response lines one request batch
	// (one connection per port, every line of the app's mix) draws.
	batchResponses map[string]int
	// batchUnchecked names the "app release" states whose batches are not
	// counted, each a defect of the app this benchmark found and may not
	// fix (see README.md, "Found while building the oracles").
	batchUnchecked map[string]bool
}

func defaultOracles() *oracles {
	applied := updateExpect{outcome: core.Applied}
	// The changed method is the accept loop, which never leaves the stack.
	aborted := updateExpect{outcome: core.Aborted}
	return &oracles{
		web: map[string]string{
			"GET /":        "200 mini-jetty/5.1.6 text/html welcome to mini-jetty",
			"GET /about":   "200 mini-jetty/5.1.6 text/html about mini-jetty",
			"GET /news":    "200 mini-jetty/5.1.6 text/html release notes",
			"GET /missing": "404 mini-jetty/5.1.6 no such path /missing",
		},
		kernels: map[string]func(kernelParams) int64{
			"arith":   arithRef,
			"virtual": virtualRef,
			"fib":     func(p kernelParams) int64 { return fibRef(p.fibN, p.fibA, p.fibB) },
			"field":   fieldRef,
			"alloc":   allocRef,
		},
		pauseOutcome: core.Applied,
		pauseField:   pauseFieldValue,
		updates: map[string]updateExpect{
			"webserver 5.1.0→5.1.1":   applied,
			"webserver 5.1.1→5.1.2":   applied,
			"webserver 5.1.2→5.1.3":   aborted,
			"webserver 5.1.3→5.1.4":   applied,
			"webserver 5.1.4→5.1.5":   applied,
			"webserver 5.1.5→5.1.6":   applied,
			"webserver 5.1.6→5.1.7":   applied,
			"webserver 5.1.7→5.1.8":   applied,
			"webserver 5.1.8→5.1.9":   applied,
			"webserver 5.1.9→5.1.10":  applied,
			"emailserver 1.2.1→1.2.2": applied,
			"emailserver 1.2.2→1.2.3": applied,
			"emailserver 1.2.3→1.2.4": applied,
			"emailserver 1.2.4→1.3":   aborted,
			"emailserver 1.3→1.3.1":   applied,
			"emailserver 1.3.1→1.3.2": applied,
			"emailserver 1.3.2→1.3.3": applied,
			"emailserver 1.3.3→1.3.4": applied,
			"emailserver 1.3.4→1.4":   applied,
			"ftpserver 1.05→1.06":     applied,
			"ftpserver 1.06→1.07":     applied,
			"ftpserver 1.07→1.08":     {outcome: core.Applied, quiesced: true},
		},
		probe: map[string]string{
			"webserver 5.1.0":   "200 mini-jetty/5.1.0 welcome to mini-jetty",
			"webserver 5.1.1":   "200 mini-jetty/5.1.1 welcome to mini-jetty",
			"webserver 5.1.2":   "200 mini-jetty/5.1.2 text/html welcome to mini-jetty",
			"webserver 5.1.3":   "200 mini-jetty/5.1.3 text/html welcome to mini-jetty",
			"webserver 5.1.4":   "200 mini-jetty/5.1.4 text/html welcome to mini-jetty",
			"webserver 5.1.5":   "200 mini-jetty/5.1.5 text/html welcome to mini-jetty",
			"webserver 5.1.6":   "200 mini-jetty/5.1.6 text/html welcome to mini-jetty",
			"webserver 5.1.7":   "200 mini-jetty/5.1.7 text/html welcome to mini-jetty",
			"webserver 5.1.8":   "200 mini-jetty/5.1.8 text/html welcome to mini-jetty",
			"webserver 5.1.9":   "200 mini-jetty/5.1.9 text/html welcome to mini-jetty",
			"webserver 5.1.10":  "200 mini-jetty/5.1.10 text/html welcome to mini-jetty",
			"emailserver 1.2.1": "250 hello from JavaEmailServer/1.2.1",
			"emailserver 1.2.2": "250 greetings from JavaEmailServer/1.2.2",
			"emailserver 1.2.3": "250 greetings from JavaEmailServer/1.2.3",
			"emailserver 1.2.4": "250 greetings from JavaEmailServer/1.2.4",
			"emailserver 1.3":   "250 greetings from JavaEmailServer/1.3",
			"emailserver 1.3.1": "250 greetings from JavaEmailServer/1.3.1",
			"emailserver 1.3.2": "250 greetings from JavaEmailServer/1.3.2",
			"emailserver 1.3.3": "250 greetings from JavaEmailServer/1.3.3",
			"emailserver 1.3.4": "250 greetings from JavaEmailServer/1.3.4",
			"emailserver 1.4":   "250 welcome to JavaEmailServer/1.4",
			"ftpserver 1.05":    "331 password required by CrossFTP/1.05",
			"ftpserver 1.06":    "331 password required by CrossFTP/1.06",
			"ftpserver 1.07":    "331 password required by CrossFTP/1.07",
			"ftpserver 1.08":    "331 password required by CrossFTP/1.08",
		},
		// webserver: 5 GETs. emailserver: HELO, DATA, QUIT on SMTP and
		// USER, STAT, RETR, FWD, QUIT on POP. ftpserver: USER, PASS, LIST,
		// RETR, QUIT. Every line is answered.
		batchResponses: map[string]int{"webserver": 5, "emailserver": 8, "ftpserver": 5},
		// ftpserver 1.07 reached by the live update answers 3 of the 5
		// lines: 1.07 ships no class transformer, FileStore.reads stays
		// null, and RETR kills the handler thread with a null dereference.
		batchUnchecked: map[string]bool{"ftpserver 1.07": true},
	}
}
