package main

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

const (
	bulkElems = 1 << 20
	bulkSrc   = 3 // Block(3) source cohort, world A
	bulkDst   = 4 // Block(4) destination cohort, world B
)

// bulk couples two worlds over one loopback session: sources live in
// world A, destinations in world B, and every message crosses the wire.
type bulk struct {
	t        *tracer
	stamp    stamp
	lb       *loopback
	pa, pb   *comm.RemotePeer
	csA, csB []*comm.Comm
	s        *schedule.Schedule
	lay      redist.Layout
	src, dst [][]complex128
	ranks    rankGroup
}

func setupBulk(t *tracer, seed uint64) (workload, error) {
	srcT, err := template1D(t, bulkElems, dad.BlockAxis(bulkSrc))
	if err != nil {
		return nil, err
	}
	dstT, err := template1D(t, bulkElems, dad.BlockAxis(bulkDst))
	if err != nil {
		return nil, err
	}
	lb, err := dialLoopback(t)
	if err != nil {
		return nil, err
	}
	const total = bulkSrc + bulkDst
	var srcRanks, dstRanks, all []int
	for r := 0; r < total; r++ {
		all = append(all, r)
		if r < bulkSrc {
			srcRanks = append(srcRanks, r)
		} else {
			dstRanks = append(dstRanks, r)
		}
	}
	wa, wb := comm.NewWorld(total), comm.NewWorld(total)
	w := &bulk{
		t:     t,
		stamp: newStamp(seed, 12),
		lb:    lb,
		lay:   redist.Layout{SrcBase: 0, DstBase: bulkSrc},
		ranks: rankGroup{errs: make([]error, total)},
	}
	id := t.begin("comm", "connect_peer", -1)
	w.pa = wa.ConnectPeer(lb.cli, dstRanks)
	w.pb = wb.ConnectPeer(lb.srv, srcRanks)
	w.csA = wa.SharedGroup(1, all)
	w.csB = wb.SharedGroup(1, all)
	t.end(id)

	id = t.begin("schedule", "get", -1)
	w.s, err = schedule.NewCache().Get(srcT, dstT)
	t.end(id)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("schedule: %w", err)
	}
	for r := 0; r < bulkSrc; r++ {
		w.src = append(w.src, make([]complex128, srcT.LocalCount(r)))
	}
	for r := 0; r < bulkDst; r++ {
		w.dst = append(w.dst, make([]complex128, dstT.LocalCount(r)))
	}
	return w, nil
}

func (w *bulk) prepare(k int) {
	for r, l := range w.src {
		fillBlockComplex(w.stamp, k, bulkElems, bulkSrc, r, l)
	}
}

func (w *bulk) run(k int) error {
	tag := k % 2
	for r := 0; r < bulkSrc; r++ {
		w.ranks.start(r, func() error {
			id := w.t.begin("redist", "src", r)
			defer w.t.end(id)
			return redist.ExchangeWithT(w.csA[r], w.s, w.lay, w.src[r], nil, tag, redist.TransferOpts{})
		})
	}
	for j := 0; j < bulkDst; j++ {
		r := bulkSrc + j
		w.ranks.start(r, func() error {
			id := w.t.begin("redist", "dst", r)
			defer w.t.end(id)
			return redist.ExchangeWithT(w.csB[r], w.s, w.lay, nil, w.dst[j], tag, redist.TransferOpts{})
		})
	}
	return w.ranks.wait()
}

func (w *bulk) verify(k int) error {
	for r, l := range w.dst {
		if err := checkBlockComplex(w.stamp, k, bulkElems, bulkDst, r, l); err != nil {
			return err
		}
	}
	return nil
}

func (w *bulk) payloadBytes() int64 { return bulkElems * 16 }

func (w *bulk) close() error {
	w.pa.Close()
	w.pb.Close()
	return w.lb.close()
}
