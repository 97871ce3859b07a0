package vm

import "fmt"

// NetSim is the simulated network: line-oriented connections between the
// Go-side workload driver and the Net.* natives inside the VM. The driver
// and the VM scheduler must share one goroutine (call driver methods
// between vm.Step calls); the VM is a deterministic green-thread machine.
//
// Resource lifecycle: a connection is reaped from the conns map once both
// sides are finished with it — the server (or client) closed it, the client
// has observed the close (via ClientClosed or its own ClientClose), and both
// line queues have drained. A listening port is released by unlisten; the
// listener entry is kept as a closed tombstone (so a blocked accept wakes
// and observes the close) until the port is rebound. Sustained load with
// well-behaved peers therefore keeps both maps bounded.
//
// A reaped connection's record is kept on a free list, its two queues' backing
// arrays with it, and Connect takes from there first; ids stay monotonic and
// are never reused, so an operation on a reaped id still finds no entry and
// takes the closed path (DESIGN.md §7.3).
type NetSim struct {
	listeners map[int64]*SimListener
	conns     map[int64]*SimConn
	nextConn  int64
	spare     []*SimConn

	// sent interns the lines the server sends, so a response line the server
	// has sent before costs no Go allocation. Reset when it reaches
	// sentBound entries; SendHits/SendMisses count lookups.
	sent       map[string]string
	SendHits   int64
	SendMisses int64
}

// sentBound is how many distinct sent lines the intern table holds before it
// starts over: above the 114 distinct lines the three apps send over every
// release of the bench's traffic, small enough that traffic whose lines never
// repeat (a counter in every line) costs one bounded map.
const sentBound = 256

// fifo is a queue popped by advancing a head index that rewinds when the queue
// drains: q = q[1:] walks the capacity off the front, a growslice per push.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }
func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (v T) {
	v, q.items[q.head] = q.items[q.head], v // the popped slot is cleared
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// SimListener is a listening port with a backlog of unaccepted connections.
// Open is cleared by unlisten; a closed listener stays in the map as a
// tombstone until the port is rebound, so server code blocked in accept
// observes the close instead of hanging forever.
type SimListener struct {
	Port    int64
	Backlog fifo[int64]
	Open    bool
}

// SimConn is one connection: two line queues.
type SimConn struct {
	ID       int64
	ToServer fifo[string]
	ToClient fifo[string]
	Closed   bool

	// ClientDone records that the client side has finished with the
	// connection: it either closed it or observed the server's close.
	// Once both sides are done and the queues are drained, the conn is
	// reaped from the map.
	ClientDone bool
}

// NewNetSim builds an empty network.
func NewNetSim() *NetSim {
	return &NetSim{
		listeners: make(map[int64]*SimListener),
		conns:     make(map[int64]*SimConn),
		sent:      make(map[string]string),
	}
}

// maybeReap deletes a connection once it is closed, the client has observed
// the close, and both queues have drained — after which every operation on
// the id behaves exactly like an operation on a closed connection (nil
// lookups take the closed path everywhere).
func (n *NetSim) maybeReap(c *SimConn) {
	if c.Closed && c.ClientDone && c.ToServer.len() == 0 && c.ToClient.len() == 0 {
		delete(n.conns, c.ID)
		n.spare = append(n.spare, c)
	}
}

// ConnCount reports live (unreaped) connections — for leak tests and stats.
func (n *NetSim) ConnCount() int { return len(n.conns) }

// ListenerCount reports listener map entries, including closed tombstones.
func (n *NetSim) ListenerCount() int { return len(n.listeners) }

// --- server (native) side -------------------------------------------------

// listen binds a port. Rebinding over a closed tombstone (a port released
// by unlisten) replaces it — the restart-across-update path.
func (n *NetSim) listen(port int64) (int64, error) {
	if l := n.listeners[port]; l != nil && l.Open {
		return 0, fmt.Errorf("net: port %d already bound", port)
	}
	n.listeners[port] = &SimListener{Port: port, Open: true}
	return port, nil
}

// unlisten closes a listening port: queued-but-unaccepted connections are
// refused (closed), the backlog is dropped, and the listener remains as a
// closed tombstone so a thread blocked in accept wakes and sees the close.
// A later listen on the same port replaces the tombstone.
func (n *NetSim) unlisten(port int64) {
	l := n.listeners[port]
	if l == nil || !l.Open {
		return
	}
	l.Open = false
	for _, id := range l.Backlog.items[l.Backlog.head:] {
		if c := n.conns[id]; c != nil {
			c.Closed = true
			n.maybeReap(c)
		}
	}
	l.Backlog = fifo[int64]{}
}

// hasPending reports whether accept would complete without blocking: either
// a connection is queued, or the listener is closed/unbound-after-close so
// accept must report done. A port that was never bound stays pending-free
// (a blocked accept on it never wakes — that is the deadlock the scheduler
// detects).
func (n *NetSim) hasPending(port int64) bool {
	l := n.listeners[port]
	return l != nil && (l.Backlog.len() > 0 || !l.Open)
}

// accept dequeues the oldest backlog connection, in FIFO order.
//
// Contract — accept returns (id, done):
//
//	(conn, true)  a queued connection was accepted
//	(-1, true)    the listener is gone or closed: the call is complete and
//	              there is no connection; callers must treat a negative id
//	              as "listener closed", not as a connection
//	(-1, false)   the listener is open but the backlog is empty: not done,
//	              the caller should block until hasPending
func (n *NetSim) accept(port int64) (int64, bool) {
	l := n.listeners[port]
	if l == nil || l.Backlog.len() == 0 {
		return -1, l == nil || !l.Open
	}
	return l.Backlog.pop(), true
}

func (n *NetSim) hasLine(id int64) bool {
	c := n.conns[id]
	return c == nil || c.Closed || c.ToServer.len() > 0
}

func (n *NetSim) recvLine(id int64) (string, bool) {
	c := n.conns[id]
	if c == nil || c.ToServer.len() == 0 {
		return "", false
	}
	line := c.ToServer.pop()
	n.maybeReap(c)
	return line, true
}

// send queues the line whose UTF-8 bytes are b; b is the caller's scratch.
// The line is interned: a map lookup keyed by string(b) does not allocate, so
// a line sent before reuses its Go string and only a new one is copied.
func (n *NetSim) send(id int64, b []byte) {
	c := n.conns[id]
	if c == nil || c.Closed {
		return
	}
	line, ok := n.sent[string(b)]
	if ok {
		n.SendHits++
	} else {
		n.SendMisses++
		if len(n.sent) == sentBound {
			clear(n.sent)
		}
		line = string(b)
		n.sent[line] = line
	}
	c.ToClient.push(line)
}

func (n *NetSim) close(id int64) {
	if c := n.conns[id]; c != nil {
		c.Closed = true
		n.maybeReap(c)
	}
}

// --- client (driver) side -------------------------------------------------

// Connect opens a client connection to a listening port.
func (n *NetSim) Connect(port int64) (int64, error) {
	l := n.listeners[port]
	if l == nil || !l.Open {
		return 0, fmt.Errorf("net: connection refused on port %d", port)
	}
	n.nextConn++
	id := n.nextConn
	var c *SimConn
	if k := len(n.spare); k > 0 {
		c, n.spare = n.spare[k-1], n.spare[:k-1]
		c.Closed, c.ClientDone = false, false // its queues drained before the reap
	} else {
		c = new(SimConn)
	}
	c.ID = id
	n.conns[id] = c
	l.Backlog.push(id)
	return id, nil
}

// ClientSend queues a request line toward the server.
func (n *NetSim) ClientSend(id int64, line string) error {
	c := n.conns[id]
	if c == nil || c.Closed {
		return fmt.Errorf("net: conn %d closed", id)
	}
	c.ToServer.push(line)
	return nil
}

// ClientRecv dequeues one response line, reporting whether one was ready.
func (n *NetSim) ClientRecv(id int64) (string, bool) {
	c := n.conns[id]
	if c == nil || c.ToClient.len() == 0 {
		return "", false
	}
	line := c.ToClient.pop()
	n.maybeReap(c)
	return line, true
}

// ClientClosed reports whether the server closed the connection. Observing
// the close marks the client side done, which lets a fully-drained
// connection be reaped.
func (n *NetSim) ClientClosed(id int64) bool {
	c := n.conns[id]
	if c == nil {
		return true
	}
	if c.Closed {
		c.ClientDone = true
		n.maybeReap(c)
		return true
	}
	return false
}

// ClientClose closes the connection from the client side.
func (n *NetSim) ClientClose(id int64) {
	c := n.conns[id]
	if c == nil {
		return
	}
	c.ClientDone = true
	c.Closed = true
	n.maybeReap(c)
}

// Listening reports whether a port is bound.
func (n *NetSim) Listening(port int64) bool {
	l := n.listeners[port]
	return l != nil && l.Open
}

// CheckIntegrity audits the NetSim tables against their documented
// lifecycle invariants — used by the storm harness's whole-VM checker.
// It verifies that no connection that should have been reaped is still
// resident, that a spare record is out of the table and drained, that the
// sent-line table keeps its bound, that listener tombstones carry no backlog
// (unlisten drops it), and that map keys agree with the entries stored under
// them. A backlog id
// whose connection was client-closed (and possibly already reaped) is a
// legal state: accept hands it out and every operation takes the
// closed-connection path.
func (n *NetSim) CheckIntegrity() error {
	for id, c := range n.conns {
		if c == nil {
			return fmt.Errorf("netsim: conn table holds nil entry for id %d", id)
		}
		if c.ID != id {
			return fmt.Errorf("netsim: conn %d stored under key %d", c.ID, id)
		}
		if c.Closed && c.ClientDone && c.ToServer.len() == 0 && c.ToClient.len() == 0 {
			return fmt.Errorf("netsim: conn %d is fully finished but was not reaped", id)
		}
	}
	for _, c := range n.spare {
		if n.conns[c.ID] == c {
			return fmt.Errorf("netsim: conn %d is live and spare at once", c.ID)
		}
		if c.ToServer.len() != 0 || c.ToClient.len() != 0 {
			return fmt.Errorf("netsim: spare conn (was %d) still queues lines", c.ID)
		}
	}
	if len(n.sent) > sentBound {
		return fmt.Errorf("netsim: %d interned sent lines, bound %d", len(n.sent), sentBound)
	}
	for port, l := range n.listeners {
		if l == nil {
			return fmt.Errorf("netsim: listener table holds nil entry for port %d", port)
		}
		if l.Port != port {
			return fmt.Errorf("netsim: listener for port %d stored under key %d", l.Port, port)
		}
		if !l.Open && l.Backlog.len() != 0 {
			return fmt.Errorf("netsim: closed listener on port %d still queues %d connections", port, l.Backlog.len())
		}
	}
	return nil
}
