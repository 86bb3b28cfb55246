package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mxn/internal/dad"
	"mxn/internal/session"
	"mxn/internal/transport"
)

// workload is one set-up benchmark scenario. Op 0 is the first op of
// set-up; the measured ops follow as 1, 2, ...
type workload interface {
	// prepare stamps op k's inputs; untimed.
	prepare(k int)
	// run performs op k; this is the timed interval.
	run(k int) error
	// verify checks op k's outputs against the oracle; untimed.
	verify(k int) error
	// payloadBytes is the useful element bytes one op moves.
	payloadBytes() int64
	// close tears the workload down, stopping every goroutine it started.
	close() error
}

type workloadSpec struct {
	name  string
	why   string
	shape string
	setup func(t *tracer, seed uint64) (workload, error)
}

// workloads lists the benchmark's scenarios; BENCHMARK.json names the same.
var workloads = []workloadSpec{
	{
		name:  "bulk-tcp",
		why:   "two worlds over one loopback TCP session, 16 MiB complex128 Block(3)->Block(4): multi-MiB messages stress receive path, framing, CRC, syscalls and session, not packing",
		shape: "two comm.Worlds joined by ConnectPeer over one loopback TCP session (default session.Config); 1048576 complex128 (16 MiB), Block(3) -> Block(4); cached schedule; unbudgeted ExchangeWithT; one op = one full redistribution",
		setup: setupBulk,
	},
	{
		name:  "strided-colocated",
		why:   "one in-process world, 1M float64 Block(2)->Cyclic(3) under a 1 MiB budget: one-element runs stress pack/unpack and the chunk/ack loop; no socket",
		shape: "one in-process comm.World (co-located); 1048576 float64, Block(2) -> Cyclic(3); cached schedule; MaxBytesInFlight = 1 MiB; one op = one full redistribution",
		setup: setupStrided,
	},
	{
		name:  "prmi-tcp",
		why:   "2 callers, 3 callees over one loopback session: collective scale of a 16384-double inout parallel array plus an independent probe; small frames, round trips, GC",
		shape: "M=2 callers, N=3 callees in two comm.Worlds over one loopback TCP session, NewCommLink on a SharedGroup; collective scale(inout parallel array<double> x, in double f) with 16384 float64, Block(2) caller, Block(3) callee, BarrierDelayed; then independent probe(in int i) to callee rank%3",
		setup: setupPRMI,
	},
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// template1D builds a one-dimensional template, timed as the dad layer.
func template1D(t *tracer, n int, axis dad.AxisDist) (*dad.Template, error) {
	id := t.begin("dad", "template", -1)
	defer t.end(id)
	return dad.NewTemplate([]int{n}, []dad.AxisDist{axis})
}

// rankGroup runs one goroutine per rank for an op and collects errors.
type rankGroup struct {
	wg   sync.WaitGroup
	errs []error
}

func (g *rankGroup) start(r int, body func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.errs[r] = body()
	}()
}

func (g *rankGroup) wait() error {
	g.wg.Wait()
	return errors.Join(g.errs...)
}

// loopback is one session over one loopback TCP connection: cli is the
// dialing end, srv the accepted end, each as comm's ConnectPeer will use
// it. With a tracer, the physical conns and both session ends are wrapped
// in the tracing conns; without one, nothing is wrapped.
type loopback struct {
	lst      *session.Listener
	cli, srv transport.Conn
}

func dialLoopback(t *tracer) (*loopback, error) {
	id := t.begin("session", "connect", -1)
	defer t.end(id)
	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := raw.Addr()
	var inner transport.Listener = raw
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, "tcp", addr)
	}
	if t != nil {
		toSrv, toCli := &linkDir{}, &linkDir{}
		inner = &traceListener{Listener: raw, t: t, out: toCli, in: toSrv}
		dial = func(ctx context.Context) (transport.Conn, error) {
			c, err := transport.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			tc, err := newTraceConn(c, t, toSrv, toCli)
			if err != nil {
				c.Close()
				return nil, err
			}
			return tc, nil
		}
	}
	lst := session.WrapListener(inner, session.Config{})
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := lst.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := session.NewConn(dial, session.Config{})
	if err != nil {
		lst.Close()
		<-ch
		return nil, fmt.Errorf("dial session: %w", err)
	}
	a := <-ch
	if a.err != nil {
		cli.Close()
		lst.Close()
		return nil, fmt.Errorf("accept session: %w", a.err)
	}
	srv, ok := a.c.(*session.Conn)
	if !ok {
		cli.Close()
		a.c.Close()
		lst.Close()
		return nil, fmt.Errorf("session listener returned %T", a.c)
	}
	lb := &loopback{lst: lst, cli: cli, srv: srv}
	if t != nil {
		lb.cli, lb.srv = &traceSession{Conn: cli, t: t}, &traceSession{Conn: srv, t: t}
	}
	return lb, nil
}

func (lb *loopback) close() error {
	return errors.Join(lb.cli.Close(), lb.srv.Close(), lb.lst.Close())
}
