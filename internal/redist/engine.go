// The unified transfer engine. All four exported exchange paths —
// schedule-driven and linear, fenced and unfenced — are thin wrappers that
// build a plan and hand it to runTransfer, the single send/recv loop in
// this package. The plan abstracts what differs (which pairwise messages
// exist, how each is packed/validated/unpacked, what a lost source
// invalidates); the engine owns everything that must behave identically
// (message pooling, epoch stamping, liveness checks, stale-epoch
// rejection, suspicion, drain-after-error hygiene, metrics, tracing).
//
// The engine is generic over the element type T and over the concrete plan
// type P. P is a type parameter rather than an interface-typed argument so
// the schedule plan can be a by-value struct: no boxing, no per-call heap
// allocation on the steady-state path.

package redist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// xferMsg is the one wire payload of the transfer engine: an element-kind
// tag, an epoch stamp (0 on unfenced transfers), and the packed elements
// as raw bytes. have carries the linear-position metadata of
// receiver-driven replies; it is nil on schedule-driven messages.
//
// Messages are pooled: senders obtain one with newMsg, receivers return it
// with recycle after unpacking. Messages dropped in transit (sends to dead
// ranks) are simply collected by the GC.
type xferMsg struct {
	epoch uint64
	kind  dad.ElemKind
	elems int
	data  []byte
	have  linear.Set
	// ack marks a credit message of the memory-bounded protocol: no
	// data, sent back to a chunk's sender on the same data tag after the
	// chunk is unpacked (see budget.go).
	ack bool
	// done, when non-nil, marks a zero-copy message: data is a borrowed
	// view of the sender's source slice, not a pooled buffer. recycle
	// signals done instead of returning data to the pool, and the sending
	// engine waits on it before returning to the caller — the rendezvous
	// that makes lending the caller's memory safe.
	done *sync.WaitGroup
	// frame, when non-nil, is the pooled receive frame of a message that
	// crossed a remote link: data is a view into it, and recycle returns
	// frame to the pool instead of data.
	frame []byte
}

// maxFreeMsgs bounds the message free list; surplus puts go to the GC.
const maxFreeMsgs = 256

var (
	mMsgPoolHits   = obs.Default().Counter("redist.msg_pool_hits")
	mMsgPoolMisses = obs.Default().Counter("redist.msg_pool_misses")
)

// msgPool is a mutex-guarded free list (not sync.Pool, whose victim cache
// is dropped at GC and would make the zero-alloc guarantee flaky). The
// backing slice is pre-sized so steady-state put never appends beyond
// capacity.
var msgPool = struct {
	mu   sync.Mutex
	free []*xferMsg
}{free: make([]*xferMsg, 0, maxFreeMsgs)}

func getMsg() *xferMsg {
	msgPool.mu.Lock()
	if n := len(msgPool.free); n > 0 {
		m := msgPool.free[n-1]
		msgPool.free[n-1] = nil
		msgPool.free = msgPool.free[:n-1]
		msgPool.mu.Unlock()
		mMsgPoolHits.Inc()
		return m
	}
	msgPool.mu.Unlock()
	mMsgPoolMisses.Inc()
	return new(xferMsg)
}

// newMsg builds a pooled message carrying elems elements of type T, with
// the data buffer drawn from bufpool. The caller packs into Data (via
// elemsOf) before sending.
func newMsg[T Elem](epoch uint64, elems int) *xferMsg {
	m := getMsg()
	m.epoch = epoch
	m.kind = kindOf[T]()
	m.elems = elems
	m.data = bufpool.Get(elems * elemSize[T]())
	m.have = nil
	addInFlight(len(m.data))
	return m
}

// Packed-bytes accounting: every data buffer drawn for a transfer
// message counts toward the process-wide in-flight total from newMsg
// until recycle. The high-water mark is the headline of redistbench's
// HighWater phase: the peak transfer-payload memory the engine had
// resident at once, the quantity MaxBytesInFlight exists to bound.
var (
	bytesInFlight  atomic.Int64
	bytesHighWater atomic.Int64
)

func init() {
	obs.Default().RegisterFunc("redist.packed_bytes_in_flight", bytesInFlight.Load)
	obs.Default().RegisterFunc("redist.packed_bytes_high_water", bytesHighWater.Load)
	obs.Default().RegisterFunc("redist.zerocopy_hit_rate_pct", func() int64 {
		h := int64(mZeroCopyHits.Value())
		m := int64(mZeroCopyMisses.Value())
		if h+m == 0 {
			return 0
		}
		return h * 100 / (h + m)
	})
}

func addInFlight(n int) {
	if n == 0 {
		return
	}
	cur := bytesInFlight.Add(int64(n))
	for {
		hw := bytesHighWater.Load()
		if cur <= hw || bytesHighWater.CompareAndSwap(hw, cur) {
			return
		}
	}
}

// PackedBytesHighWater returns the peak packed transfer-payload bytes
// resident at once since the last reset (process-wide, across every
// concurrent transfer).
func PackedBytesHighWater() int64 { return bytesHighWater.Load() }

// ResetPackedBytesHighWater rebases the high-water mark to the bytes
// currently in flight, so a measurement phase sees only its own peak.
func ResetPackedBytesHighWater() { bytesHighWater.Store(bytesInFlight.Load()) }

// recycle returns a message and its buffer to their pools. A zero-copy
// message's data is the sender's own memory, not a pooled buffer: it is
// released by signalling the rendezvous (after the message itself is
// back in the pool, so the sender's Wait orders after all receiver work).
// A message decoded from a remote frame releases the whole frame its data
// views.
func recycle(m *xferMsg) {
	if done := m.done; done != nil {
		*m = xferMsg{}
		putMsg(m)
		done.Done()
		return
	}
	bytesInFlight.Add(-int64(len(m.data)))
	if m.frame != nil {
		bufpool.Put(m.frame)
	} else {
		bufpool.Put(m.data)
	}
	*m = xferMsg{}
	putMsg(m)
}

func putMsg(m *xferMsg) {
	msgPool.mu.Lock()
	if len(msgPool.free) < maxFreeMsgs {
		msgPool.free = append(msgPool.free, m)
	}
	msgPool.mu.Unlock()
}

// Zero-copy fast-path instruments: hits are messages sent directly from
// the caller's source slice (no pack, no copy), misses are messages that
// were eligible for consideration (opt-in set) but had to fall back to
// packing. The derived gauge exposes the hit rate in Snapshot/expvar.
var (
	mZeroCopyHits   = obs.Default().Counter("redist.zerocopy_hits")
	mZeroCopyMisses = obs.Default().Counter("redist.zerocopy_misses")
)

// zcWaitPool recycles the rendezvous WaitGroups of zero-copy sends so
// the steady-state path stays allocation-free.
var zcWaitPool = struct {
	mu   sync.Mutex
	free []*sync.WaitGroup
}{}

func getZCWait() *sync.WaitGroup {
	zcWaitPool.mu.Lock()
	if n := len(zcWaitPool.free); n > 0 {
		wg := zcWaitPool.free[n-1]
		zcWaitPool.free[n-1] = nil
		zcWaitPool.free = zcWaitPool.free[:n-1]
		zcWaitPool.mu.Unlock()
		return wg
	}
	zcWaitPool.mu.Unlock()
	return new(sync.WaitGroup)
}

func putZCWait(wg *sync.WaitGroup) {
	zcWaitPool.mu.Lock()
	if len(zcWaitPool.free) < 64 {
		zcWaitPool.free = append(zcWaitPool.free, wg)
	}
	zcWaitPool.mu.Unlock()
}

// pairOp describes one pairwise message of a plan from the local rank's
// point of view.
type pairOp struct {
	group int // peer's communicator group rank
	rank  int // peer's cohort rank (error and trace attribution)
	elems int // elements in the message
}

// plan is what a transfer path supplies to the engine: the set of
// pairwise messages this rank sends and expects, and the path-specific
// pack/validate/unpack/loss rules. Implementations: schedPlan (by value,
// allocation-free) and *linPlan.
type plan[T Elem] interface {
	// proto names the path ("exchange" or "linear") in typed errors.
	proto() string
	// srcRank/dstRank are this rank's cohort ranks, -1 outside the cohort.
	srcRank() int
	dstRank() int
	// dstLen is len(dstLocal); sizes the fenced validity bitmap.
	dstLen() int

	sends() int
	sendOp(i int) pairOp
	// sendSet returns position metadata to attach to the i'th outgoing
	// message (linear replies); nil for schedule-driven messages.
	sendSet(i int) linear.Set
	// sendView returns a byte view taken directly from the caller's
	// source slice for the i'th outgoing message when that message is a
	// single run contiguous (and suitably aligned) in it and the plan's
	// zero-copy opt-in is set; nil when the message must be packed. The
	// view aliases the caller's memory — the engine only lends it to
	// in-process receivers and rendezvouses before returning.
	sendView(i int) []byte
	pack(i int, out []T)
	// packRange packs the window [elemOff, elemOff+len(out)) of the
	// i'th outgoing message's packed element order: the chunk primitive
	// of the memory-bounded path. Consecutive windows tiling the message
	// must equal one pack of the whole message.
	packRange(i, elemOff int, out []T)

	recvs() int
	recvOp(i int) pairOp
	// check validates an arrived message against the i'th expectation
	// (element counts, position sets); kind and byte-length checks are
	// the engine's.
	check(i int, m *xferMsg) error
	// checkHave validates only the position metadata of a message
	// opening the i'th expectation (the first chunk of a budgeted
	// message, whose element count covers just its own window).
	checkHave(i int, m *xferMsg) error
	unpack(i int, data []T)
	// unpackRange unpacks a chunk holding the window
	// [elemOff, elemOff+len(data)) of the i'th incoming message.
	unpackRange(i, elemOff int, data []T)

	// lose applies FailRedistribute to the i'th incoming message whose
	// source is dead: invalidate what it would have delivered, replan if
	// the path supports it.
	lose(i int, f *fenceRun)
	// finish runs plan-level validation after all receives; lost reports
	// whether any incoming message was lost to a dead rank.
	finish(lost bool) error
}

// fenceRun is the per-call state of a fenced transfer. nil means unfenced:
// blocking receives, no epoch stamps, no liveness checks.
type fenceRun struct {
	opts       FenceOpts
	entryEpoch uint64
	out        *Outcome
	downSeen   map[int]bool
	// abortOnDeadSend: under FailStrict, a sender aborts on a dead
	// destination (schedule-driven: the missing message would wedge the
	// protocol). Receiver-driven replies just skip dead requesters.
	abortOnDeadSend bool
}

func newFenceRun(opts FenceOpts, abortOnDeadSend bool) *fenceRun {
	return newFenceRunAt(opts, abortOnDeadSend, opts.Membership.Epoch())
}

// newFenceRunAt pins an explicit entry epoch instead of sampling the
// live one. The resize migration uses it: every rank must enter the
// migration at the resize's prepare epoch, even if a death has already
// bumped the live epoch past it — otherwise ranks entering before and
// after the death would fence the same transfer at different epochs and
// discard each other's traffic as stale.
func newFenceRunAt(opts FenceOpts, abortOnDeadSend bool, entryEpoch uint64) *fenceRun {
	opts = opts.withDefaults()
	return &fenceRun{
		opts:            opts,
		entryEpoch:      entryEpoch,
		out:             &Outcome{Epoch: entryEpoch},
		downSeen:        map[int]bool{},
		abortOnDeadSend: abortOnDeadSend,
	}
}

func (f *fenceRun) noteDown(group int) {
	if !f.downSeen[group] {
		f.downSeen[group] = true
		f.out.Down = append(f.out.Down, group)
	}
}

// runTransfer is the transfer loop: the only place in this package that
// sends or receives data messages. Sources pack and post every pairwise
// message without waiting; destinations consume exactly the messages their
// plan expects. On error the destination keeps draining its remaining
// expected messages (with a give-up timeout when fenced) so nothing stays
// queued under dataTag to cross-match a later transfer. A positive budget
// selects the memory-bounded chunked protocol instead (budget.go).
func runTransfer[T Elem, P plan[T]](c *comm.Comm, pl P, dataTag int, f *fenceRun, budget int) error {
	if budget > 0 {
		return runBudgeted[T](c, pl, dataTag, f, budget)
	}
	// Zero-copy sends lend the caller's source slice to in-process
	// receivers; the rendezvous below holds this rank until every lent
	// view has been unpacked and recycled, so the caller may mutate its
	// source the moment runTransfer returns — error paths included, since
	// receivers recycle every expected message even while draining.
	var zcWait *sync.WaitGroup
	err := runDirect[T](c, pl, dataTag, f, &zcWait)
	if zcWait != nil {
		zcWait.Wait()
		putZCWait(zcWait)
	}
	return err
}

// runDirect is the unbudgeted transfer loop body; zcWait is created
// lazily on the first zero-copy send so the legacy path pays nothing.
func runDirect[T Elem, P plan[T]](c *comm.Comm, pl P, dataTag int, f *fenceRun, zcWait **sync.WaitGroup) error {
	tr := obs.Trace()
	wantKind := kindOf[T]()
	esz := elemSize[T]()
	var epoch uint64
	if f != nil {
		epoch = f.entryEpoch
	}

	// Send phase. A FailStrict abort on a dead destination does not
	// return yet: the error is held so the receive phase below still
	// drains whatever peers already posted to this rank — returning
	// early would leave their messages queued under dataTag to
	// cross-match the next transfer on the same tag (the same
	// tag-pollution class the receive path already guards against).
	var sendAbort error
	for i, n := 0, pl.sends(); i < n; i++ {
		op := pl.sendOp(i)
		if f != nil && !f.opts.Membership.IsAlive(op.group) {
			f.noteDown(op.group)
			mSendsSkippedDead.Inc()
			if f.abortOnDeadSend && f.opts.Policy == FailStrict {
				mRankdownAborts.Inc()
				sendAbort = &core.ErrRankDown{Rank: op.group, Epoch: f.opts.Membership.Epoch()}
				break
			}
			continue
		}
		if f == nil {
			if view := pl.sendView(i); view != nil {
				// Contiguous-run fast path: send a view of the caller's
				// slice, zero pack, zero copy. Only for in-process peers
				// (a mailbox delivers the same slice) and never to self —
				// the legacy path's pack keeps aliased src/dst safe there.
				if op.group != c.Rank() && c.DeliverableLocal(op.group) {
					m := getMsg()
					m.epoch = epoch
					m.kind = wantKind
					m.elems = op.elems
					m.data = view
					m.have = pl.sendSet(i)
					if *zcWait == nil {
						*zcWait = getZCWait()
					}
					(*zcWait).Add(1)
					m.done = *zcWait
					start := time.Now()
					c.Send(op.group, dataTag, m)
					mMsgsSent.Inc()
					mZeroCopyHits.Inc()
					mMsgElems.Observe(int64(op.elems))
					tr.Span(obs.EvSend, "", pl.srcRank(), op.rank, int64(op.elems), start)
					continue
				}
				mZeroCopyMisses.Inc()
			}
		}
		m := newMsg[T](epoch, op.elems)
		m.have = pl.sendSet(i)
		start := time.Now()
		pl.pack(i, elemsOf[T](m.data, op.elems))
		mPackNS.ObserveSince(start)
		tr.Span(obs.EvPack, "", pl.srcRank(), op.rank, int64(op.elems), start)
		c.Send(op.group, dataTag, m)
		mMsgsSent.Inc()
		mElemsPacked.Add(uint64(op.elems))
		mMsgElems.Observe(int64(op.elems))
		tr.Span(obs.EvSend, "", pl.srcRank(), op.rank, int64(op.elems), start)
	}
	if pl.srcRank() >= 0 && sendAbort == nil {
		mTransfers.Inc()
	}

	// Receive phase.
	nRecv := pl.recvs()
	if nRecv == 0 && pl.dstRank() < 0 {
		if sendAbort != nil {
			mErrors.Inc()
		}
		return sendAbort
	}
	if f != nil && pl.dstRank() >= 0 {
		f.out.Validity = dad.NewValidity(pl.dstLen())
	}
	firstErr := sendAbort
	lost := false
	for i := 0; i < nRecv; i++ {
		op := pl.recvOp(i)
		if f == nil {
			payload, _ := c.Recv(op.group, dataTag)
			mMsgsRecv.Inc()
			m, ok := payload.(*xferMsg)
			if firstErr != nil {
				mDrained.Inc()
				if ok {
					recycle(m)
				}
				continue
			}
			if !ok {
				firstErr = fmt.Errorf("redist: destination rank %d received %T, want transfer message", pl.dstRank(), payload)
				continue
			}
			firstErr = consume[T](pl, i, op, m, wantKind, esz, tr)
			continue
		}
		waited := time.Duration(0)
		for {
			if firstErr == nil && !f.opts.Membership.IsAlive(op.group) {
				f.noteDown(op.group)
				if f.opts.Policy == FailStrict {
					mRankdownAborts.Inc()
					firstErr = &core.ErrRankDown{Rank: op.group, Epoch: f.opts.Membership.Epoch()}
				} else {
					pl.lose(i, f)
					lost = true
				}
				break
			}
			payload, _, ok := c.RecvTimeout(op.group, dataTag, f.opts.PollInterval)
			if !ok {
				waited += f.opts.PollInterval
				if f.opts.SuspectAfter > 0 && waited >= f.opts.SuspectAfter {
					f.opts.Membership.MarkDown(op.group)
				}
				if firstErr != nil && waited >= maxDur(f.opts.SuspectAfter, 10*f.opts.PollInterval) {
					// Draining after an error: give up on sources that
					// stay silent.
					break
				}
				continue
			}
			// Every consumed message counts, including discards: mMsgsRecv
			// is "messages taken off the wire", matching the unfenced path.
			mMsgsRecv.Inc()
			m, isMsg := payload.(*xferMsg)
			if isMsg && m.epoch != 0 && m.epoch < f.entryEpoch {
				// Leftover of a pre-failure attempt; discard and keep
				// waiting for the current epoch's message.
				mStaleEpoch.Inc()
				recycle(m)
				continue
			}
			if firstErr != nil {
				mDrained.Inc()
				if isMsg {
					recycle(m)
				}
				break
			}
			if isMsg && m.epoch > f.entryEpoch {
				// The peer already re-planned into a NEWER epoch than this
				// rank entered at. Consuming its message against our stale
				// plan would corrupt data silently whenever the element
				// counts happen to match; reject with a typed error so the
				// caller re-enters at the current epoch.
				mStaleLocal.Inc()
				remote := m.epoch
				recycle(m)
				firstErr = &StaleLocalEpochError{Transfer: pl.proto(), Rank: pl.dstRank(), Peer: op.rank, Local: f.entryEpoch, Remote: remote}
				break
			}
			if !isMsg {
				firstErr = fmt.Errorf("redist: destination rank %d received %T, want transfer message", pl.dstRank(), payload)
				break
			}
			firstErr = consume[T](pl, i, op, m, wantKind, esz, tr)
			break
		}
	}
	if firstErr != nil {
		mErrors.Inc()
		return firstErr
	}
	if err := pl.finish(lost); err != nil {
		mErrors.Inc()
		return err
	}
	if f != nil && pl.dstRank() >= 0 && f.opts.Desc != nil && !f.out.Validity.AllValid() {
		f.opts.Desc.SetValidity(pl.dstRank(), f.out.Validity)
	}
	if pl.dstRank() >= 0 {
		mTransfers.Inc()
	}
	return nil
}

// consume validates, unpacks and recycles one arrived message.
func consume[T Elem, P plan[T]](pl P, i int, op pairOp, m *xferMsg, wantKind dad.ElemKind, esz int, tr *obs.Tracer) error {
	defer recycle(m)
	if m.kind != wantKind {
		return &ElemKindError{Transfer: pl.proto(), DstRank: pl.dstRank(), SrcRank: op.rank, Got: m.kind, Want: wantKind}
	}
	if len(m.data) != m.elems*esz {
		return &ElemCountError{Transfer: pl.proto(), DstRank: pl.dstRank(), SrcRank: op.rank, Got: len(m.data) / esz, Want: m.elems}
	}
	if err := pl.check(i, m); err != nil {
		return err
	}
	start := time.Now()
	pl.unpack(i, elemsOf[T](m.data, m.elems))
	mUnpackNS.ObserveSince(start)
	mElemsUnpack.Add(uint64(m.elems))
	tr.Span(obs.EvUnpack, "", pl.dstRank(), op.rank, int64(m.elems), start)
	return nil
}

// schedPlan is the schedule-driven plan: pairwise messages come straight
// from the schedule's per-rank views via the indexed (allocation-free)
// accessors. It is used by value so building it costs nothing.
type schedPlan[T Elem] struct {
	s        *schedule.Schedule
	lay      Layout
	src, dst int // cohort ranks, -1 outside the cohort
	srcLocal []T
	dstLocal []T
	zc       bool // TransferOpts.ZeroCopyLocal: offer contiguous-run views
}

func (p schedPlan[T]) proto() string { return "exchange" }
func (p schedPlan[T]) srcRank() int  { return p.src }
func (p schedPlan[T]) dstRank() int  { return p.dst }
func (p schedPlan[T]) dstLen() int   { return len(p.dstLocal) }

func (p schedPlan[T]) sends() int {
	if p.src < 0 {
		return 0
	}
	return p.s.OutDegree(p.src)
}

func (p schedPlan[T]) sendOp(i int) pairOp {
	pp := p.s.OutgoingAt(p.src, i)
	return pairOp{group: p.lay.DstBase + pp.DstRank, rank: pp.DstRank, elems: pp.Elems}
}

func (p schedPlan[T]) sendSet(i int) linear.Set { return nil }

// sendView offers the contiguous-run fast path: a message whose schedule
// entry is a single one-block run, contiguous in srcLocal, can be sent as
// a view of the caller's slice, skipping pack and buffer entirely. Gated
// on the ZeroCopyLocal opt-in, on single-block shape, and on the element
// view meeting the alignment bufpool buffers guarantee (so the
// receive-side reinterpret sees no difference from a pooled buffer).
func (p schedPlan[T]) sendView(i int) []byte {
	if !p.zc {
		return nil
	}
	pp := p.s.OutgoingAt(p.src, i)
	if len(pp.Runs) != 1 || pp.Runs[0].Blocks() != 1 {
		mZeroCopyMisses.Inc()
		return nil
	}
	run := pp.Runs[0]
	view := p.srcLocal[run.SrcOff : run.SrcOff+run.N]
	if !alignedFor(view) {
		mZeroCopyMisses.Inc()
		return nil
	}
	return bytesOf(view)
}

func (p schedPlan[T]) pack(i int, out []T) {
	schedule.PackSlice(p.s.OutgoingAt(p.src, i), p.srcLocal, out)
}

func (p schedPlan[T]) packRange(i, elemOff int, out []T) {
	schedule.PackSliceRange(p.s.OutgoingAt(p.src, i), p.srcLocal, out, elemOff)
}

func (p schedPlan[T]) recvs() int {
	if p.dst < 0 {
		return 0
	}
	return p.s.InDegree(p.dst)
}

func (p schedPlan[T]) recvOp(i int) pairOp {
	pp := p.s.IncomingAt(p.dst, i)
	return pairOp{group: p.lay.SrcBase + pp.SrcRank, rank: pp.SrcRank, elems: pp.Elems}
}

func (p schedPlan[T]) check(i int, m *xferMsg) error {
	pp := p.s.IncomingAt(p.dst, i)
	if m.elems != pp.Elems {
		return &ElemCountError{Transfer: "exchange", DstRank: p.dst, SrcRank: pp.SrcRank, Got: m.elems, Want: pp.Elems}
	}
	return nil
}

// checkHave is a no-op: schedule-driven messages carry no position
// metadata, and a budgeted chunk's element count is the engine's check.
func (p schedPlan[T]) checkHave(i int, m *xferMsg) error { return nil }

func (p schedPlan[T]) unpack(i int, data []T) {
	schedule.UnpackSlice(p.s.IncomingAt(p.dst, i), p.dstLocal, data)
}

func (p schedPlan[T]) unpackRange(i, elemOff int, data []T) {
	schedule.UnpackSliceRange(p.s.IncomingAt(p.dst, i), p.dstLocal, data, elemOff)
}

// lose invalidates the elements the dead pair would have delivered and
// (once per transfer) re-plans against the survivors, invalidating the
// schedule cache entry so later transfers rebuild from current templates.
func (p schedPlan[T]) lose(i int, f *fenceRun) {
	pp := p.s.IncomingAt(p.dst, i)
	for _, run := range pp.Runs {
		for k := 0; k < run.Blocks(); k++ {
			_, d := run.Block(k)
			f.out.Validity.InvalidateRange(d, run.N)
		}
	}
	mElemsInvalidated.Add(uint64(pp.Elems))
	if f.out.Replanned == nil {
		start := time.Now()
		if f.opts.Cache != nil {
			f.opts.Cache.Invalidate(p.s.Src, p.s.Dst)
		}
		m := f.opts.Membership
		f.out.Replanned = schedule.Restrict(p.s,
			func(r int) bool { return m.IsAlive(p.lay.SrcBase + r) },
			func(r int) bool { return m.IsAlive(p.lay.DstBase + r) })
		mReplanNS.ObserveSince(start)
		mReplans.Inc()
	}
}

func (p schedPlan[T]) finish(lost bool) error { return nil }

// linPlan is the receiver-driven plan, built after the request phase: the
// send side answers the collected requests, the receive side expects one
// reply per source it requested from (including sources already dead at
// entry, which the engine's liveness check resolves without blocking).
type linPlan[T Elem] struct {
	lay      Layout
	src, dst int
	srcLin   linear.LinearizerT[T]
	dstLin   linear.LinearizerT[T]
	srcLocal []T
	dstLocal []T

	// Send side: one reply per collected request.
	outDst  []int        // requester cohort ranks
	outSets []linear.Set // owned ∩ need per requester

	// Receive side: one expected reply per source rank.
	inSrc  []int        // source cohort ranks
	inSets []linear.Set // expected positions per source (owned ∩ need)

	need    linear.Set // this destination's full position set
	got     int        // positions successfully unpacked
	lostAny bool

	// Scratch sub-sets reused across packRange/unpackRange calls of the
	// memory-bounded path (each call's result is consumed synchronously
	// before the next, so one scratch set per direction suffices).
	packSub   linear.Set
	unpackSub linear.Set
}

func (p *linPlan[T]) proto() string { return "linear" }
func (p *linPlan[T]) srcRank() int  { return p.src }
func (p *linPlan[T]) dstRank() int  { return p.dst }
func (p *linPlan[T]) dstLen() int   { return len(p.dstLocal) }

func (p *linPlan[T]) sends() int { return len(p.outDst) }

func (p *linPlan[T]) sendOp(i int) pairOp {
	return pairOp{group: p.lay.DstBase + p.outDst[i], rank: p.outDst[i], elems: p.outSets[i].Len()}
}

func (p *linPlan[T]) sendSet(i int) linear.Set { return p.outSets[i] }

// sendView is always nil: linear replies are gathered through a
// Linearizer and have no contiguous-run representation to borrow.
func (p *linPlan[T]) sendView(i int) []byte { return nil }

func (p *linPlan[T]) pack(i int, out []T) {
	p.srcLin.Pack(p.src, p.srcLocal, p.outSets[i], out)
	mLinReplies.Inc()
}

func (p *linPlan[T]) packRange(i, elemOff int, out []T) {
	p.packSub = p.outSets[i].Slice(elemOff, len(out), p.packSub)
	p.srcLin.Pack(p.src, p.srcLocal, p.packSub, out)
	if elemOff == 0 {
		mLinReplies.Inc()
	}
}

func (p *linPlan[T]) recvs() int { return len(p.inSrc) }

func (p *linPlan[T]) recvOp(i int) pairOp {
	return pairOp{group: p.lay.SrcBase + p.inSrc[i], rank: p.inSrc[i], elems: p.inSets[i].Len()}
}

func (p *linPlan[T]) check(i int, m *xferMsg) error {
	expect := p.inSets[i]
	if !m.have.Equal(expect) || m.elems != expect.Len() {
		return &ElemCountError{Transfer: "linear", DstRank: p.dst, SrcRank: p.inSrc[i], Got: m.elems, Want: expect.Len()}
	}
	return nil
}

// checkHave validates the position metadata the first chunk of a
// budgeted message carries: the sender's full reply set, which must
// equal this destination's expected intersection. Chunk element counts
// are the engine's concern.
func (p *linPlan[T]) checkHave(i int, m *xferMsg) error {
	expect := p.inSets[i]
	if !m.have.Equal(expect) {
		return &ElemCountError{Transfer: "linear", DstRank: p.dst, SrcRank: p.inSrc[i], Got: m.have.Len(), Want: expect.Len()}
	}
	return nil
}

func (p *linPlan[T]) unpack(i int, data []T) {
	p.dstLin.Unpack(p.dst, p.dstLocal, p.inSets[i], data)
	p.got += len(data)
}

func (p *linPlan[T]) unpackRange(i, elemOff int, data []T) {
	p.unpackSub = p.inSets[i].Slice(elemOff, len(data), p.unpackSub)
	p.dstLin.Unpack(p.dst, p.dstLocal, p.unpackSub, data)
	p.got += len(data)
}

// lose invalidates the destination positions the dead source owned:
// Unpack a tracking buffer of ones through the lost set, then invalidate
// everywhere a one landed — no new Linearizer surface needed.
func (p *linPlan[T]) lose(i int, f *fenceRun) {
	p.lostAny = true
	lost := p.inSets[i]
	if lost.Len() == 0 {
		return
	}
	track := make([]T, len(p.dstLocal))
	ones := make([]T, lost.Len())
	var one T
	switch v := any(&one).(type) {
	case *float64:
		*v = 1
	case *float32:
		*v = 1
	case *int64:
		*v = 1
	case *int32:
		*v = 1
	case *complex128:
		*v = 1
	}
	for j := range ones {
		ones[j] = one
	}
	p.dstLin.Unpack(p.dst, track, lost, ones)
	var zero T
	for j, v := range track {
		if v != zero {
			f.out.Validity.Invalidate(j)
		}
	}
	mElemsInvalidated.Add(uint64(lost.Len()))
	mReplans.Inc()
}

// finish checks total coverage: every needed position arrived exactly
// once. Skipped when a source was lost — the validity bitmap already
// records the shortfall.
func (p *linPlan[T]) finish(lost bool) error {
	if p.dst < 0 || lost || p.lostAny {
		return nil
	}
	if want := p.need.Len(); p.got != want {
		return &ElemCountError{Transfer: "linear", DstRank: p.dst, SrcRank: -1, Got: p.got, Want: want}
	}
	return nil
}
