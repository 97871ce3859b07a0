package vm

import (
	"fmt"
	"strings"
	"testing"
)

// TestAcceptContract pins NetSim.accept's (id, done) semantics: done=true
// with id=-1 means "the listener is gone or closed" (the call completes
// without a connection), done=false means "open but empty backlog" (the
// caller should block), and backlog delivery is FIFO.
func TestAcceptContract(t *testing.T) {
	cases := []struct {
		name     string
		setup    func(n *NetSim)
		port     int64
		wantID   int64
		wantDone bool
	}{
		{
			name:     "nil listener (never bound)",
			setup:    func(n *NetSim) {},
			port:     80,
			wantID:   -1,
			wantDone: true,
		},
		{
			name: "closed listener (unlisten tombstone)",
			setup: func(n *NetSim) {
				if _, err := n.listen(80); err != nil {
					t.Fatal(err)
				}
				n.unlisten(80)
			},
			port:     80,
			wantID:   -1,
			wantDone: true,
		},
		{
			name: "empty open backlog blocks",
			setup: func(n *NetSim) {
				if _, err := n.listen(80); err != nil {
					t.Fatal(err)
				}
			},
			port:     80,
			wantID:   -1,
			wantDone: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := NewNetSim()
			c.setup(n)
			id, done := n.accept(c.port)
			if id != c.wantID || done != c.wantDone {
				t.Fatalf("accept(%d) = (%d, %v), want (%d, %v)", c.port, id, done, c.wantID, c.wantDone)
			}
		})
	}

	t.Run("FIFO order", func(t *testing.T) {
		n := NewNetSim()
		if _, err := n.listen(80); err != nil {
			t.Fatal(err)
		}
		var want []int64
		for i := 0; i < 3; i++ {
			id, err := n.Connect(80)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
		for i, w := range want {
			id, done := n.accept(80)
			if !done || id != w {
				t.Fatalf("accept #%d = (%d, %v), want (%d, true)", i, id, done, w)
			}
		}
		if id, done := n.accept(80); id != -1 || done {
			t.Fatalf("drained accept = (%d, %v), want (-1, false)", id, done)
		}
	})
}

// TestListenerUnlistenAndRebind exercises the restart-across-update path:
// a server releases its port with Net.unlisten and a later Net.listen on
// the same port succeeds (the seed VM returned "port already bound"
// forever). Queued-but-unaccepted connections are refused at unlisten.
func TestListenerUnlistenAndRebind(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class S {
  static method serve(I)V {
    load 0
    invokestatic Net.listen(I)I
    pop
    load 0
    invokestatic Net.accept(I)I
    store 1
    load 1
    iflt done
    load 1
    ldc "hi"
    invokestatic Net.send(ILString;)V
    load 1
    invokestatic Net.close(I)V
  done:
    load 0
    invokestatic Net.unlisten(I)V
    return
  }
  static method main()V {
    const 80
    invokestatic S.serve(I)V
    const 80
    invokestatic S.serve(I)V
    return
  }
}`)
	if _, err := v.SpawnMain("S"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		// Wait for the (re)bound listener.
		ok := false
		for i := 0; i < 200; i++ {
			v.Step(5)
			if v.Net.Listening(80) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("round %d: port 80 never (re)bound", round)
		}
		conn, err := v.Net.Connect(80)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := ""
		for i := 0; i < 200; i++ {
			v.Step(5)
			if line, ready := v.Net.ClientRecv(conn); ready {
				got = line
				break
			}
		}
		if got != "hi" {
			t.Fatalf("round %d: response = %q, want \"hi\"", round, got)
		}
		if !v.Net.ClientClosed(conn) {
			// Let the server's close land, then observe it (which also
			// lets the conn be reaped).
			v.Step(20)
			v.Net.ClientClosed(conn)
		}
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	for _, th := range v.Threads {
		if th.Err != nil {
			t.Fatalf("thread %s: %v", th.Name, th.Err)
		}
	}
	if v.Net.Listening(80) {
		t.Fatal("port 80 still listening after final unlisten")
	}
}

// TestAcceptWakesOnUnlisten: a thread blocked in Net.accept must wake when
// the port is unlistened — the hasPending !Open branch the seed VM could
// never reach — and observe id=-1 instead of hanging forever.
func TestAcceptWakesOnUnlisten(t *testing.T) {
	v, out := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class S {
  static method main()V {
    const 80
    invokestatic Net.listen(I)I
    pop
    const 80
    invokestatic Net.accept(I)I
    invokestatic System.printInt(I)V
    return
  }
}`)
	if _, err := v.SpawnMain("S"); err != nil {
		t.Fatal(err)
	}
	v.Step(50) // server is now blocked in accept
	if got := v.Step(10); got != 0 {
		t.Fatalf("server should be blocked, ran %d slices", got)
	}
	v.Net.unlisten(80)
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "-1" {
		t.Fatalf("accept after unlisten printed %q, want -1", got)
	}
}

// TestNetSimConnReaping: sustained request load against a spawning server
// must not grow the conns map, the listener map, or the VM thread table —
// the Fig. 5 steady-state leak fixed in this change. The seed VM grew
// n.conns by one per request cycle, forever.
func TestNetSimConnReaping(t *testing.T) {
	v, _ := newTestVM(t, 1<<18)
	loadSrc(t, v, `
class Handler {
  field conn I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Handler.conn I
    return
  }
  method run()V {
  lineloop:
    load 0
    getfield Handler.conn I
    invokestatic Net.recvLine(I)LString;
    store 1
    load 1
    ifnull closed
    load 0
    getfield Handler.conn I
    ldc "ok: "
    load 1
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    goto lineloop
  closed:
    load 0
    getfield Handler.conn I
    invokestatic Net.close(I)V
    return
  }
}
class Srv {
  static method main()V {
    const 80
    invokestatic Net.listen(I)I
    store 0
  acceptloop:
    load 0
    invokestatic Net.accept(I)I
    store 1
    load 1
    iflt out
    new Handler
    dup
    load 1
    invokespecial Handler.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    goto acceptloop
  out:
    return
  }
}`)
	if _, err := v.SpawnMain("Srv"); err != nil {
		t.Fatal(err)
	}
	v.Step(20)
	const cycles = 150
	for c := 0; c < cycles; c++ {
		conn, err := v.Net.Connect(80)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if err := v.Net.ClientSend(conn, "ping"); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		got := false
		for i := 0; i < 2000; i++ {
			v.Step(2)
			if _, ok := v.Net.ClientRecv(conn); ok {
				got = true
				break
			}
		}
		if !got {
			t.Fatalf("cycle %d: request timed out", c)
		}
		v.Net.ClientClose(conn)
		v.Step(30) // let the handler observe the close, close its side, and exit
	}
	if n := v.Net.ConnCount(); n > 4 {
		t.Fatalf("conns map grew: %d live conns after %d cycles (leak)", n, cycles)
	}
	if n := v.Net.ListenerCount(); n > 2 {
		t.Fatalf("listener map grew: %d entries", n)
	}
	// One handler thread was spawned per cycle; cleanly-dead handlers must
	// be reaped so the table stays bounded by the reap threshold, not by
	// total connections served.
	if n := len(v.Threads); n > reapThreshold+8 {
		t.Fatalf("thread table grew: %d threads after %d cycles (reap broken)", n, cycles)
	}
	st := v.Stats()
	if st.ThreadsReaped == 0 {
		t.Fatal("no threads reaped during sustained load")
	}
	if st.ThreadsSpawned < cycles {
		t.Fatalf("expected ≥%d spawns, got %d", cycles, st.ThreadsSpawned)
	}
}

// TestErrorDeadThreadsReapedIntoLog: threads killed by runtime errors are
// eventually reaped like clean deaths — their errors land in the bounded
// DeadErrors log instead of retaining whole thread objects (stacks and all)
// on every scheduler scan and GC root walk forever.
func TestErrorDeadThreadsReapedIntoLog(t *testing.T) {
	v, _ := newTestVM(t, 1<<18)
	loadSrc(t, v, `
class Crasher {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    trap "handler crashed"
  }
}
class T {
  static method main()V {
    const 0
    store 0
  loop:
    load 0
    const 200
    if_icmpge done
    new Crasher
    dup
    invokespecial Crasher.<init>()V
    invokestatic Thread.spawn(LObject;)V
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    return
  }
}`)
	if _, err := v.SpawnMain("T"); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(v.Threads); n > reapThreshold+8 {
		t.Fatalf("error-dead threads retained: table has %d threads", n)
	}
	if len(v.DeadErrors) == 0 {
		t.Fatal("no DeadErrors recorded for reaped crashers")
	}
	if len(v.DeadErrors) > maxDeadErrors {
		t.Fatalf("DeadErrors unbounded: %d entries (cap %d)", len(v.DeadErrors), maxDeadErrors)
	}
	for _, de := range v.DeadErrors {
		if !strings.Contains(de.Err.Error(), "handler crashed") {
			t.Fatalf("unexpected dead error: %v", de.Err)
		}
		if de.Name != "Crasher.run" {
			t.Fatalf("unexpected dead thread name: %q", de.Name)
		}
	}
}

// TestNetSimQueuesReuseStorage: on a warm connection a request/response cycle
// (and a second line queued behind the first) allocates nothing — popping
// rewinds the queue instead of walking its capacity off the front — and a
// warm listener takes a connection into its backlog without growing it. The
// queues stay FIFO and drained queues keep no line alive.
func TestNetSimQueuesReuseStorage(t *testing.T) {
	n := NewNetSim()
	if _, err := n.listen(80); err != nil {
		t.Fatal(err)
	}
	id, err := n.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if got, done := n.accept(80); got != id || !done {
		t.Fatalf("accept = %d, %v", got, done)
	}
	cycle := func() {
		if n.ClientSend(id, "GET /a") != nil || n.ClientSend(id, "GET /b") != nil {
			t.Fatal("send on an open connection failed")
		}
		if a, ok := n.recvLine(id); !ok || a != "GET /a" {
			t.Fatalf("recvLine = %q, %v", a, ok)
		}
		n.send(id, []byte("200 a"))
		if b, ok := n.recvLine(id); !ok || b != "GET /b" {
			t.Fatalf("recvLine = %q, %v", b, ok)
		}
		n.send(id, []byte("200 b"))
		if a, ok := n.ClientRecv(id); !ok || a != "200 a" {
			t.Fatalf("ClientRecv = %q, %v", a, ok)
		}
		if b, ok := n.ClientRecv(id); !ok || b != "200 b" {
			t.Fatalf("ClientRecv = %q, %v", b, ok)
		}
		if _, ok := n.recvLine(id); ok || n.hasLine(id) {
			t.Fatal("a drained queue still has a line")
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v Go allocations per request cycle on a warm connection, want 0", allocs)
	}
	c := n.conns[id]
	for _, q := range []fifo[string]{c.ToServer, c.ToClient} {
		if q.len() != 0 || q.head != 0 || cap(q.items) < 2 {
			t.Fatalf("drained queue %+v: want rewound and its capacity kept", q)
		}
		for _, line := range q.items[:cap(q.items)] {
			if line != "" {
				t.Fatalf("drained queue still holds %q", line)
			}
		}
	}

	// The backlog: connect/accept pairs on a warm listener. A connection is a
	// Go object and a map entry, so count the backlog's own growth instead.
	l := n.listeners[80]
	before := cap(l.Backlog.items)
	for i := 0; i < 100; i++ {
		cid, err := n.Connect(80)
		if err != nil {
			t.Fatal(err)
		}
		if got, done := n.accept(80); got != cid || !done {
			t.Fatalf("accept = %d, %v, want %d", got, done, cid)
		}
		n.ClientClose(cid)
	}
	if cap(l.Backlog.items) != before || l.Backlog.len() != 0 {
		t.Fatalf("backlog capacity %d -> %d over 100 connect/accept pairs, %d queued", before, cap(l.Backlog.items), l.Backlog.len())
	}
	if err := n.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestNetSimRecyclesConns: a reaped connection's record comes back from the
// next Connect under a fresh id with empty queues and both close flags clear,
// while every operation on the old id still takes the closed path; many
// connect/close cycles leave the tables intact and the spare list short.
func TestNetSimRecyclesConns(t *testing.T) {
	n := NewNetSim()
	if _, err := n.listen(80); err != nil {
		t.Fatal(err)
	}
	old, _ := n.Connect(80)
	n.accept(80)
	rec := n.conns[old]
	if n.ClientSend(old, "GET /") != nil {
		t.Fatal("send on a fresh connection failed")
	}
	n.recvLine(old)
	n.send(old, []byte("200 OK"))
	n.close(old)
	n.ClientRecv(old)
	if !n.ClientClosed(old) || n.conns[old] != nil {
		t.Fatal("a closed, observed, drained connection was not reaped")
	}

	id, _ := n.Connect(80)
	c := n.conns[id]
	if c != rec || id <= old {
		t.Fatalf("Connect gave record %p id %d, want the reaped record %p under an id above %d", c, id, rec, old)
	}
	if c.Closed || c.ClientDone || c.ToServer.len() != 0 || c.ToClient.len() != 0 {
		t.Fatalf("recycled conn not fresh: %+v", c)
	}
	// The old id is a closed connection to every operation, and none of them
	// reaches the record now serving id.
	if n.ClientSend(old, "x") == nil || !n.hasLine(old) || !n.ClientClosed(old) {
		t.Fatal("the reaped id does not read as closed")
	}
	if _, ok := n.recvLine(old); ok {
		t.Fatal("recvLine on the reaped id returned a line")
	}
	if _, ok := n.ClientRecv(old); ok {
		t.Fatal("ClientRecv on the reaped id returned a line")
	}
	n.send(old, []byte("stray"))
	n.close(old)
	n.ClientClose(old)
	if c.Closed || c.ClientDone || c.ToClient.len() != 0 || n.conns[id] != c {
		t.Fatalf("an operation on the reaped id reached its successor: %+v", c)
	}

	for i := 0; i < 500; i++ {
		cid, err := n.Connect(80)
		if err != nil {
			t.Fatal(err)
		}
		n.accept(80)
		n.ClientSend(cid, "GET /")
		if i%3 != 0 { // a third leave the request unread, which keeps them unreaped
			n.recvLine(cid)
			n.send(cid, []byte("200 OK"))
			n.ClientRecv(cid)
		}
		n.close(cid)
		n.ClientClose(cid)
		if err := n.CheckIntegrity(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if live, spare := n.ConnCount(), len(n.spare); live+spare > 200 {
		t.Fatalf("%d live and %d spare conns after 500 cycles of one connection each", live, spare)
	}
}

// TestNetSimSendInterning: a line sent again reuses the interned string; more
// distinct lines than the table's bound all arrive intact, in order, while
// the table starts over instead of growing.
func TestNetSimSendInterning(t *testing.T) {
	n := NewNetSim()
	if _, err := n.listen(80); err != nil {
		t.Fatal(err)
	}
	id, _ := n.Connect(80)
	n.accept(80)
	const lines = 3*sentBound + 7
	for round := 0; round < 2; round++ {
		for i := 0; i < lines; i++ {
			n.send(id, fmt.Appendf(nil, "200 line %d", i))
			if len(n.sent) > sentBound {
				t.Fatalf("intern table holds %d lines, bound %d", len(n.sent), sentBound)
			}
		}
		for i := 0; i < lines; i++ {
			if got, ok := n.ClientRecv(id); !ok || got != fmt.Sprintf("200 line %d", i) {
				t.Fatalf("round %d line %d: got %q, %v", round, i, got, ok)
			}
		}
	}
	if n.SendHits != 0 || n.SendMisses != 2*lines {
		t.Fatalf("%d hits and %d misses for lines that never repeat within the bound", n.SendHits, n.SendMisses)
	}
	b := []byte("200 OK")
	n.send(id, b)
	b[0] = '5' // the caller's scratch is reused; the queued line must not change
	n.send(id, []byte("200 OK"))
	if n.SendHits != 1 {
		t.Fatalf("a repeated line missed the table (%d hits)", n.SendHits)
	}
	for i := 0; i < 2; i++ {
		if got, _ := n.ClientRecv(id); got != "200 OK" {
			t.Fatalf("line %d = %q, want 200 OK", i, got)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { n.send(id, b); n.ClientRecv(id) }); allocs != 0 {
		t.Fatalf("%v Go allocations sending an interned line, want 0", allocs)
	}
	if err := n.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
