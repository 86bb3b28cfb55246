package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/prmi"
	"mxn/internal/sidl"
)

const (
	prmiElems   = 16384
	prmiCallers = 2 // Block(2) caller cohort, world A
	prmiCallees = 3 // Block(3) callee cohort, world B
	prmiSIDL    = `
package perfbench;

interface Field {
    collective void scale(inout parallel array<double> x, in double f);
    independent double probe(in int i);
}
`
)

// probeReply is the callee's closed-form answer to probe(i).
func probeReply(i int64, calleeRank int) float64 { return float64(i)*0.5 + float64(calleeRank) }

// prmiWork is the RMI half of the paper: a caller cohort invoking a
// callee cohort in another world over one loopback session.
type prmiWork struct {
	t        *tracer
	seed     uint64
	stamp    stamp
	lb       *loopback
	pa, pb   *comm.RemotePeer
	callers  []*prmi.CallerPort
	cohort   []*comm.Comm
	callerT  *dad.Template
	local    [][]float64
	factor   float64
	probeIn  [prmiCallers]int64
	probeOut [prmiCallers]float64
	serving  sync.WaitGroup
	serveErr [prmiCallees]error
	ranks    rankGroup
}

func setupPRMI(t *tracer, seed uint64) (workload, error) {
	id := t.begin("sidl", "parse", -1)
	pkg, err := sidl.Parse(prmiSIDL)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("sidl: %w", err)
	}
	iface, ok := pkg.Interface("Field")
	if !ok {
		return nil, errors.New("sidl: no interface Field")
	}
	callerT, err := template1D(t, prmiElems, dad.BlockAxis(prmiCallers))
	if err != nil {
		return nil, err
	}
	calleeT, err := template1D(t, prmiElems, dad.BlockAxis(prmiCallees))
	if err != nil {
		return nil, err
	}
	lb, err := dialLoopback(t)
	if err != nil {
		return nil, err
	}
	const total = prmiCallers + prmiCallees
	var callerRanks, calleeRanks, all []int
	for r := 0; r < total; r++ {
		all = append(all, r)
		if r < prmiCallers {
			callerRanks = append(callerRanks, r)
		} else {
			calleeRanks = append(calleeRanks, r)
		}
	}
	wa, wb := comm.NewWorld(total), comm.NewWorld(total)
	w := &prmiWork{
		t:       t,
		seed:    seed,
		stamp:   newStamp(seed, 14), // values < 2^50, so x*f stays exact for f <= 4
		lb:      lb,
		callerT: callerT,
		ranks:   rankGroup{errs: make([]error, prmiCallers)},
	}
	id = t.begin("comm", "connect_peer", -1)
	w.pa = wa.ConnectPeer(lb.cli, calleeRanks)
	w.pb = wb.ConnectPeer(lb.srv, callerRanks)
	shA, shB := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	w.cohort = wa.Group(callerRanks)
	t.end(id)

	id = t.begin("prmi", "register", -1)
	var layouts []byte
	for j := 0; j < prmiCallees; j++ {
		ep := prmi.NewEndpoint(iface, prmi.NewCommLink(shB[prmiCallers+j], 0, 0), j, prmiCallees, prmiCallers)
		err := errors.Join(
			ep.RegisterArgLayout("scale", "x", calleeT),
			ep.Handle("scale", w.scale),
			ep.Handle("probe", w.probe))
		if err != nil {
			t.end(id)
			w.close()
			return nil, err
		}
		if j == 0 {
			layouts = ep.EncodeLayouts()
		}
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			w.serveErr[j] = ep.Serve()
		}()
	}
	for i := 0; i < prmiCallers; i++ {
		p := prmi.NewCallerPort(iface, prmi.NewCommLink(shA[i], prmiCallers, 0), i, prmiCallees, prmi.BarrierDelayed)
		w.callers = append(w.callers, p)
		if err := p.ApplyLayouts(layouts); err != nil {
			t.end(id)
			w.close()
			return nil, err
		}
		w.local = append(w.local, make([]float64, callerT.LocalCount(i)))
	}
	t.end(id)
	return w, nil
}

// scale is the callee's implementation of Field.scale.
func (w *prmiWork) scale(in *prmi.Incoming, out *prmi.Outgoing) error {
	id := w.t.begin("handler", "scale", in.CalleeRank)
	defer w.t.end(id)
	f, ok := in.Simple["f"].(float64)
	if !ok {
		return fmt.Errorf("scale: f is %T", in.Simple["f"])
	}
	x := out.Parallel["x"]
	for i := range x {
		x[i] *= f
	}
	return nil
}

// probe is the callee's implementation of Field.probe.
func (w *prmiWork) probe(in *prmi.Incoming, out *prmi.Outgoing) error {
	id := w.t.begin("handler", "probe", in.CalleeRank)
	defer w.t.end(id)
	i, ok := in.Simple["i"].(int64)
	if !ok {
		return fmt.Errorf("probe: i is %T", in.Simple["i"])
	}
	out.Return = probeReply(i, in.CalleeRank)
	return nil
}

func (w *prmiWork) prepare(k int) {
	w.factor = float64(2 + k%3)
	for i, l := range w.local {
		fillBlock(w.stamp, k, prmiElems, prmiCallers, i, l)
		w.probeIn[i] = int64(splitmix64(w.seed^uint64(k)<<8^uint64(i)) % 1000000)
		w.probeOut[i] = -1
	}
}

func (w *prmiWork) run(k int) error {
	for i, p := range w.callers {
		w.ranks.start(i, func() error {
			id := w.t.begin("prmi", "collective", i)
			_, err := p.CallCollective("scale", prmi.FullParticipation(w.cohort[i]),
				prmi.Parallel("x", w.callerT, w.local[i]), prmi.Simple("f", w.factor))
			w.t.end(id)
			if err != nil {
				return fmt.Errorf("caller %d scale: %w", i, err)
			}
			id = w.t.begin("prmi", "independent", i)
			res, err := p.CallIndependent(i%prmiCallees, "probe", prmi.Simple("i", w.probeIn[i]))
			w.t.end(id)
			if err != nil {
				return fmt.Errorf("caller %d probe: %w", i, err)
			}
			v, ok := res.Return.(float64)
			if !ok {
				return fmt.Errorf("caller %d probe returned %T", i, res.Return)
			}
			w.probeOut[i] = v
			return nil
		})
	}
	return w.ranks.wait()
}

func (w *prmiWork) verify(k int) error {
	for i, l := range w.local {
		if err := checkBlockScaled(w.stamp, k, prmiElems, prmiCallers, i, w.factor, l); err != nil {
			return err
		}
		if want := probeReply(w.probeIn[i], i%prmiCallees); w.probeOut[i] != want {
			return fmt.Errorf("op %d caller %d probe(%d): got %v want %v", k, i, w.probeIn[i], w.probeOut[i], want)
		}
	}
	return nil
}

// payloadBytes counts the array out and back plus each probe's argument
// and result.
func (w *prmiWork) payloadBytes() int64 { return 2*prmiElems*8 + prmiCallers*16 }

// close shuts the callers down, which ends every endpoint's Serve loop,
// then detaches both worlds and closes the session.
func (w *prmiWork) close() error {
	var errs []error
	for i, p := range w.callers {
		if err := p.Close(); err != nil {
			errs = append(errs, fmt.Errorf("caller %d close: %w", i, err))
		}
	}
	served := make(chan struct{})
	go func() {
		w.serving.Wait()
		close(served)
	}()
	select {
	case <-served:
		for j, err := range w.serveErr {
			if err != nil {
				errs = append(errs, fmt.Errorf("callee %d serve: %w", j, err))
			}
		}
	case <-time.After(10 * time.Second):
		errs = append(errs, errors.New("callee endpoints did not shut down within 10s"))
	}
	w.pa.Close()
	w.pb.Close()
	errs = append(errs, w.lb.close())
	return errors.Join(errs...)
}
