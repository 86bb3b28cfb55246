package redist

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/schedule"
	"mxn/internal/wire"
)

// runMatrixT runs one in-process exchange of the matrix shape —
// block(2) → block(3), every cross-cohort pair a single contiguous run —
// under the given knobs and returns the destination locals.
func runMatrixT[T Elem](t *testing.T, conv func(float64) T, fenced bool, budget int, zc bool) [][]T {
	t.Helper()
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.BlockAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]T, n)
	var mem *core.Membership
	if fenced {
		mem = core.NewMembership(m + n)
	}
	comm.Run(m+n, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []T
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]T, dst.LocalCount(c.Rank()-m))
		}
		var xerr error
		if fenced {
			fo := FenceOpts{Membership: mem, PollInterval: time.Millisecond, MaxBytesInFlight: budget}
			_, xerr = ExchangeFencedT(c, s, lay, sl, dl, 0, fo)
		} else {
			opts := TransferOpts{MaxBytesInFlight: budget, ZeroCopyLocal: zc}
			xerr = ExchangeWithT(c, s, lay, sl, dl, 0, opts)
		}
		if xerr != nil {
			t.Errorf("rank %d: %v", c.Rank(), xerr)
		}
		if dl != nil {
			dstLocals[c.Rank()-m] = dl
		}
	})
	return dstLocals
}

func sameLocals[T Elem](t *testing.T, a, b [][]T) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("rank count differs: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if !bytes.Equal(bytesOf(a[r]), bytesOf(b[r])) {
			t.Errorf("rank %d: zero-copy result differs bitwise from legacy", r)
		}
	}
}

// TestZeroCopyDifferentialMatrix: for every element kind, fenced and
// unfenced, budgeted and unbudgeted, the destination bytes with
// ZeroCopyLocal on are bit-identical to the legacy copying path, and the
// legacy path itself verifies against the fingerprints.
func TestZeroCopyDifferentialMatrix(t *testing.T) {
	type cfg struct {
		name   string
		fenced bool
		budget int
	}
	cfgs := []cfg{
		{"unfenced", false, 0},
		{"unfenced-budget", false, 64},
		{"fenced", true, 0},
		{"fenced-budget", true, 64},
	}
	run := func(t *testing.T, name string, body func(t *testing.T, fenced bool, budget int)) {
		for _, c := range cfgs {
			t.Run(name+"/"+c.name, func(t *testing.T) { body(t, c.fenced, c.budget) })
		}
	}
	run(t, "float64", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) float64 { return v }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "float32", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) float32 { return float32(v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "int64", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) int64 { return int64(v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "int32", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) int32 { return int32(v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "complex128", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) complex128 { return complex(v, -v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
}

// TestZeroCopyHitCounter: the all-contiguous shape takes the fast path
// on every cross-rank message when enabled, and never when disabled.
func TestZeroCopyHitCounter(t *testing.T) {
	conv := func(v float64) float64 { return v }

	before := mZeroCopyHits.Value()
	runMatrixT(t, conv, false, 0, false)
	if got := mZeroCopyHits.Value() - before; got != 0 {
		t.Fatalf("fast path taken %d times with ZeroCopyLocal off", got)
	}

	before = mZeroCopyHits.Value()
	runMatrixT(t, conv, false, 0, true)
	// block(2)→block(3) over 24 elements: 4 cross-rank contiguous sends.
	if got := mZeroCopyHits.Value() - before; got != 4 {
		t.Fatalf("fast-path hits = %d, want 4", got)
	}
}

// TestZeroCopyPacksNothing: during a pure-contiguous zero-copy exchange
// the packer is never invoked — the "at most one copy" claim, measured.
func TestZeroCopyPacksNothing(t *testing.T) {
	conv := func(v float64) float64 { return v }
	before := mElemsPacked.Value()
	runMatrixT(t, conv, false, 0, true)
	if got := mElemsPacked.Value() - before; got != 0 {
		t.Fatalf("packed %d elements during a zero-copy exchange, want 0", got)
	}
}

// runZeroCopyLocal runs one in-process ZeroCopyLocal exchange from src to
// dst, verifies it, and returns the fast path's hits and misses.
func runZeroCopyLocal(t *testing.T, src, dst *dad.Template) (hits, misses uint64) {
	t.Helper()
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := src.NumProcs(), dst.NumProcs()
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	hitsBefore := mZeroCopyHits.Value()
	missBefore := mZeroCopyMisses.Value()
	comm.Run(m+n, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		if err := ExchangeWithT(c, s, lay, sl, dl, 0, TransferOpts{ZeroCopyLocal: true}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			dstLocals[c.Rank()-m] = dl
		}
	})
	verify(t, dst, dstLocals)
	return mZeroCopyHits.Value() - hitsBefore, mZeroCopyMisses.Value() - missBefore
}

// TestZeroCopyNonContiguousFallsBack: a cyclic destination strides every
// outgoing run, so the fast path must decline (misses, no hits) and the
// transfer still verifies.
func TestZeroCopyNonContiguousFallsBack(t *testing.T) {
	hits, misses := runZeroCopyLocal(t, tpl(t, []int{24}, dad.BlockAxis(2)), tpl(t, []int{24}, dad.CyclicAxis(3)))
	if hits != 0 {
		t.Fatalf("fast-path hits = %d on a fragmented shape, want 0", hits)
	}
	if misses == 0 {
		t.Fatal("no fast-path misses recorded on a fragmented shape")
	}
}

// TestZeroCopyCyclicToCyclicTakesView: cyclic(3)→cyclic(3) plans each
// pair as one plain run covering the whole local buffer, so every message
// goes out as a view.
func TestZeroCopyCyclicToCyclicTakesView(t *testing.T) {
	hits, misses := runZeroCopyLocal(t, tpl(t, []int{24}, dad.CyclicAxis(3)), tpl(t, []int{24}, dad.CyclicAxis(3)))
	if hits != 3 || misses != 0 {
		t.Fatalf("fast-path hits, misses = %d, %d, want 3, 0", hits, misses)
	}
}

// TestZeroCopySafeToMutateAfterReturn: Exchange with ZeroCopyLocal
// rendezvouses with every borrowing receiver before returning, so a
// caller who overwrites srcLocal the moment Exchange returns cannot
// corrupt the destination.
func TestZeroCopySafeToMutateAfterReturn(t *testing.T) {
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.BlockAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	for round := 0; round < 50; round++ {
		srcLocals := fillByGlobal(src)
		dstLocals := make([][]float64, n)
		comm.Run(m+n, func(c *comm.Comm) {
			lay := Layout{SrcBase: 0, DstBase: m}
			var sl, dl []float64
			if c.Rank() < m {
				sl = srcLocals[c.Rank()]
			} else {
				dl = make([]float64, dst.LocalCount(c.Rank()-m))
			}
			if err := ExchangeWithT(c, s, lay, sl, dl, 0, TransferOpts{ZeroCopyLocal: true}); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			// The contract under test: the lent views are dead the moment
			// Exchange returns.
			for i := range sl {
				sl[i] = -1
			}
			if dl != nil {
				dstLocals[c.Rank()-m] = dl
			}
		})
		verify(t, dst, dstLocals)
		if t.Failed() {
			t.Fatalf("corruption after %d clean rounds", round)
		}
	}
}

// TestZeroCopySelfSendAliased: identity redistribution with srcLocal and
// dstLocal aliased to the same slice. Self-sends are excluded from the
// fast path (a borrowed view over the unpack target would corrupt), so
// this must work with ZeroCopyLocal on, and record no hits.
func TestZeroCopySelfSendAliased(t *testing.T) {
	src := tpl(t, []int{16}, dad.BlockAxis(2))
	s, err := schedule.Build(src, src)
	if err != nil {
		t.Fatal(err)
	}
	locals := fillByGlobal(src)
	before := mZeroCopyHits.Value()
	comm.Run(2, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 0}
		buf := locals[c.Rank()]
		if err := ExchangeWithT(c, s, lay, buf, buf, 0, TransferOpts{ZeroCopyLocal: true}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	verify(t, src, locals)
	if got := mZeroCopyHits.Value() - before; got != 0 {
		t.Fatalf("fast path lent a view on a self-send: %d hits", got)
	}
}

// TestXferMsgCodecBorrowBitIdentical: the borrow-mode encode of a
// transfer message splits into header+payload whose concatenation is
// bit-identical to the legacy single-buffer encode. Decoding a pooled
// frame keeps the frame and unpacks from an aligned view into it;
// decoding a misaligned foreign buffer copies instead.
func TestXferMsgCodecBorrowBitIdentical(t *testing.T) {
	build := func() *xferMsg {
		m := getMsg()
		m.epoch = 3
		m.kind = dad.Float64
		m.elems = 4
		m.ack = true
		m.have = linear.Set{{Lo: 2, Hi: 6}}
		m.data = bufpool.Get(32)
		for i := range m.data {
			m.data[i] = byte(i * 3)
		}
		addInFlight(len(m.data))
		return m
	}

	e1 := wire.NewEncoder(nil)
	if !encodeXferMsg(e1, build()) {
		t.Fatal("legacy encode refused an *xferMsg")
	}
	legacy := append([]byte(nil), e1.Bytes()...)

	e2 := wire.NewEncoderV(nil)
	if !encodeXferMsg(e2, build()) {
		t.Fatal("borrow encode refused an *xferMsg")
	}
	head, data := e2.Vector()
	if data == nil {
		t.Fatal("borrow-mode encode did not borrow the payload")
	}
	vec := append(append([]byte(nil), head...), data...)
	if !bytes.Equal(legacy, vec) {
		t.Fatalf("borrow encoding differs from legacy\nlegacy % x\nborrow % x", legacy, vec)
	}
	bufpool.Put(data) // ownership passed to us (standing in for the conn)

	checkFields := func(m *xferMsg) {
		t.Helper()
		if m.epoch != 3 || m.kind != dad.Float64 || m.elems != 4 || !m.ack {
			t.Fatalf("decoded fields: %+v", m)
		}
		if len(m.have) != 1 || m.have[0] != (linear.Interval{Lo: 2, Hi: 6}) {
			t.Fatalf("decoded have: %v", m.have)
		}
	}

	// A pooled frame, as every transport delivers: the message views the
	// frame at an aligned offset and owns it until recycle.
	baseline := bufpool.Outstanding()
	frame := bufpool.Get(len(legacy))
	copy(frame, legacy)
	v, kept, err := decodeXferMsg(wire.NewDecoder(frame), frame)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(*xferMsg)
	checkFields(m)
	if !kept || m.frame == nil {
		t.Fatal("decode of a pooled frame did not keep it")
	}
	if unsafe.SliceData(m.data) != &frame[len(head)] || len(head)%8 != 0 {
		t.Fatalf("decoded payload is not the aligned view at offset %d of the frame", len(head))
	}
	recycle(m)
	if d := bufpool.Outstanding() - baseline; d != 0 {
		t.Fatalf("recycle left %+d pooled buffers outstanding", d)
	}

	// A foreign buffer that breaks the alignment: the payload is copied
	// and the frame is not kept.
	shifted := append([]byte{0}, legacy...)[1:]
	v, kept, err = decodeXferMsg(wire.NewDecoder(shifted), shifted)
	if err != nil {
		t.Fatal(err)
	}
	m = v.(*xferMsg)
	checkFields(m)
	if kept || m.frame != nil {
		t.Fatal("decode kept a misaligned foreign frame")
	}
	want := append([]byte(nil), m.data...)
	for i := range shifted {
		shifted[i] = 0xFF
	}
	if !bytes.Equal(m.data, want) {
		t.Fatal("decoded payload of a misaligned frame aliases it")
	}
	recycle(m)
}
