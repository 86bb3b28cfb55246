package main

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

const (
	stridedElems  = 1 << 20
	stridedSrc    = 2 // Block(2)
	stridedDst    = 3 // Cyclic(3)
	stridedBudget = 1 << 20
)

// strided is the co-located (direct-connected) deployment: both cohorts
// in one in-process world, so no message touches a socket.
type strided struct {
	t     *tracer
	stamp stamp
	cs    []*comm.Comm
	s     *schedule.Schedule
	lay   redist.Layout
	src   [][]float64
	dst   [][]float64
	ranks rankGroup
}

func setupStrided(t *tracer, seed uint64) (workload, error) {
	srcT, err := template1D(t, stridedElems, dad.BlockAxis(stridedSrc))
	if err != nil {
		return nil, err
	}
	dstT, err := template1D(t, stridedElems, dad.CyclicAxis(stridedDst))
	if err != nil {
		return nil, err
	}
	const total = stridedSrc + stridedDst
	w := &strided{
		t:     t,
		stamp: newStamp(seed, 12),
		cs:    comm.NewWorld(total).Comms(),
		lay:   redist.Layout{SrcBase: 0, DstBase: stridedSrc},
		ranks: rankGroup{errs: make([]error, total)},
	}
	id := t.begin("schedule", "get", -1)
	w.s, err = schedule.NewCache().Get(srcT, dstT)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	for r := 0; r < stridedSrc; r++ {
		w.src = append(w.src, make([]float64, srcT.LocalCount(r)))
	}
	for r := 0; r < stridedDst; r++ {
		w.dst = append(w.dst, make([]float64, dstT.LocalCount(r)))
	}
	return w, nil
}

func (w *strided) prepare(k int) {
	for r, l := range w.src {
		fillBlock(w.stamp, k, stridedElems, stridedSrc, r, l)
	}
}

func (w *strided) run(k int) error {
	// Back-to-back budgeted transfers take distinct base tags (see
	// redist.TransferOpts.MaxBytesInFlight).
	tag := k % 2
	opts := redist.TransferOpts{MaxBytesInFlight: stridedBudget}
	for r := 0; r < stridedSrc; r++ {
		w.ranks.start(r, func() error {
			id := w.t.begin("redist", "src", r)
			defer w.t.end(id)
			return redist.ExchangeWithT(w.cs[r], w.s, w.lay, w.src[r], nil, tag, opts)
		})
	}
	for j := 0; j < stridedDst; j++ {
		r := stridedSrc + j
		w.ranks.start(r, func() error {
			id := w.t.begin("redist", "dst", r)
			defer w.t.end(id)
			return redist.ExchangeWithT(w.cs[r], w.s, w.lay, nil, w.dst[j], tag, opts)
		})
	}
	return w.ranks.wait()
}

func (w *strided) verify(k int) error {
	for r, l := range w.dst {
		if err := checkCyclic(w.stamp, k, stridedElems, stridedDst, r, l); err != nil {
			return err
		}
	}
	return nil
}

func (w *strided) payloadBytes() int64 { return stridedElems * 8 }

func (w *strided) close() error { return nil }
