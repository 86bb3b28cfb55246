package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mxn/internal/session"
	"mxn/internal/transport"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. Spans of one op share Op; Parent links a span to the
// innermost span open on the same goroutine when it began, or to the op's
// root span when none was.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	g      uint64
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// valid and records nothing, which is how untraced runs use the same code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // goroutine -> stack of open span IDs
	op    int              // current op number, -1 outside an op
	root  int              // root span ID of the current op, -1 outside
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[uint64][]int{}, op: -1, root: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// goid returns the calling goroutine's ID, parsed from the header line of
// its stack trace ("goroutine 17 [running]:"). Go exposes no cheaper way
// to learn which goroutine a call runs on, and the parent links of spans
// recorded inside library call chains (comm forwarding into the session
// wrapper, the session into the transport wrapper) need exactly that.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, rank int) int {
	id, _ := t.beginAt(layer, name, rank)
	return id
}

// beginAt is begin that also returns the span's start time.
func (t *tracer) beginAt(layer, name string, rank int) (int, int64) {
	if t == nil {
		return -1, 0
	}
	g := goid()
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.root
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name,
		Rank: rank, Start: start, End: -1, g: g})
	t.open[g] = append(t.open[g], id)
	return id, start
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = end
	st := t.open[s.g]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			t.open[s.g] = append(st[:i], st[i+1:]...)
			break
		}
	}
}

// record adds a closed span whose start was computed after the fact.
func (t *tracer) record(layer, name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.root, Op: t.op, Layer: layer, Name: name,
		Rank: -1, Start: start, End: end})
}

// beginOp opens the root span of op k; every span begun until endOp
// belongs to it.
func (t *tracer) beginOp(k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = k
	t.mu.Unlock()
	id := t.begin("op", "op", -1)
	t.mu.Lock()
	t.root = id
	t.mu.Unlock()
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := t.root
	t.op, t.root = -1, -1
	t.mu.Unlock()
	t.end(id)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// opWindows are the [start, end) intervals of the op root spans, in time
// order; per-op figures count only span time inside them, so waits that
// straddle the oracle's untimed work between ops are not charged.
type opWindows [][2]int64

func windowsOf(spans []span) opWindows {
	var w opWindows
	for _, s := range spans {
		if s.Layer == "op" && s.End >= 0 {
			w = append(w, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(w, func(i, j int) bool { return w[i][0] < w[j][0] })
	return w
}

// clip returns how much of [a, b) lies inside the op windows.
func (w opWindows) clip(a, b int64) int64 {
	i := sort.Search(len(w), func(i int) bool { return w[i][1] > a })
	var n int64
	for ; i < len(w) && w[i][0] < b; i++ {
		lo, hi := max(a, w[i][0]), min(b, w[i][1])
		if hi > lo {
			n += hi - lo
		}
	}
	return n
}

// selfTimes returns, per layer, the span time inside op windows not
// covered by the span's own children: where each layer spent time itself
// rather than in the layers it called, summed over the ranks and
// goroutines that ran concurrently. Session receive spans are pure waits
// for the peer and are reported on their own, not as self time.
func selfTimes(spans []span, w opWindows) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		if s.End < 0 || s.Layer == "session" && s.Name == "recv" {
			continue
		}
		own := w.clip(s.Start, s.End)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		lo, hi := int64(-1), int64(-1)
		flush := func() {
			if hi > lo {
				own -= w.clip(max(lo, s.Start), min(hi, s.End))
			}
		}
		for _, k := range kids {
			if k.Start > hi {
				flush()
				lo, hi = k.Start, k.End
			} else if k.End > hi {
				hi = k.End
			}
		}
		flush()
		self[s.Layer] += own
	}
	return self
}

// linkDir matches frames written in one direction of a TCP connection to
// their reads on the far side, so a read is timed from when its bytes
// began to flow rather than from when the reader started waiting.
type linkDir struct {
	mu     sync.Mutex
	starts []int64 // write start of each frame, in frame order
	reads  int
}

func (d *linkDir) wrote(start int64) {
	d.mu.Lock()
	d.starts = append(d.starts, start)
	d.mu.Unlock()
}

// nextRead returns the write start of the next frame to be read, or -1.
func (d *linkDir) nextRead() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := d.reads
	d.reads++
	if i < len(d.starts) {
		return d.starts[i]
	}
	return -1
}

// rawConn is what the TCP transport's conns implement; the transport-level
// wrapper forwards all of it so the session above keeps the vectored path.
type rawConn interface {
	transport.Conn
	transport.VectorWriter
	transport.OwnedSender
}

// traceConn times every frame write and read of one physical connection.
type traceConn struct {
	rawConn
	t       *tracer
	out, in *linkDir
}

func newTraceConn(c transport.Conn, t *tracer, out, in *linkDir) (*traceConn, error) {
	rc, ok := c.(rawConn)
	if !ok {
		return nil, fmt.Errorf("conn %T lacks the vectored/owned send interfaces", c)
	}
	return &traceConn{rawConn: rc, t: t, out: out, in: in}, nil
}

func (c *traceConn) write(send func() error) error {
	id, start := c.t.beginAt("transport", "write", -1)
	c.out.wrote(start)
	err := send()
	c.t.end(id)
	return err
}

func (c *traceConn) read(recv func() ([]byte, error)) ([]byte, error) {
	called := c.t.now()
	msg, err := recv()
	if err != nil {
		return msg, err
	}
	start := max(called, c.in.nextRead())
	c.t.record("transport", "read", start, c.t.now())
	return msg, nil
}

func (c *traceConn) Send(msg []byte) error {
	return c.write(func() error { return c.rawConn.Send(msg) })
}

func (c *traceConn) SendContext(ctx context.Context, msg []byte) error {
	return c.write(func() error { return c.rawConn.SendContext(ctx, msg) })
}

func (c *traceConn) SendV(segs net.Buffers) error {
	return c.write(func() error { return c.rawConn.SendV(segs) })
}

func (c *traceConn) SendOwned(head, payload []byte) error {
	return c.write(func() error { return c.rawConn.SendOwned(head, payload) })
}

func (c *traceConn) Recv() ([]byte, error) { return c.read(c.rawConn.Recv) }

func (c *traceConn) RecvContext(ctx context.Context) ([]byte, error) {
	return c.read(func() ([]byte, error) { return c.rawConn.RecvContext(ctx) })
}

// traceListener wraps each accepted connection in a traceConn.
type traceListener struct {
	transport.Listener
	t       *tracer
	out, in *linkDir
}

func (l *traceListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, err := newTraceConn(c, l.t, l.out, l.in)
	if err != nil {
		c.Close()
		return nil, err
	}
	return tc, nil
}

// traceSession times the session layer as comm's remote peer uses it:
// sends (including replay-buffer flow-control waits) and receive waits.
// It forwards transport.OwnedSender so comm keeps lending pack buffers.
type traceSession struct {
	*session.Conn
	t *tracer
}

func (c *traceSession) Send(msg []byte) error {
	id := c.t.begin("session", "send", -1)
	defer c.t.end(id)
	return c.Conn.Send(msg)
}

func (c *traceSession) SendOwned(head, payload []byte) error {
	id := c.t.begin("session", "send", -1)
	defer c.t.end(id)
	return c.Conn.SendOwned(head, payload)
}

func (c *traceSession) Recv() ([]byte, error) {
	id := c.t.begin("session", "recv", -1)
	defer c.t.end(id)
	return c.Conn.Recv()
}
