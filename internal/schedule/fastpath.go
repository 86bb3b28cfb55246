// Closed-form schedule planning for regular layout pairs.
//
// The enumerating builders intersect materialized interval lists (or patch
// lists) and call Template.LocalOffset once per run — correct for every
// distribution, but first contact between two cohorts pays milliseconds
// and tens of thousands of allocations (see BENCH_redist.json's uncached
// rows before this path existed). For the common regular cases the
// intersection of two coordinates' owned index sets has a closed form
// (Sudarsan & Ribbens, "Efficient Multidimensional Data Redistribution
// for Resizable Parallel Computations"):
//
//   - interval × interval (block↔block and friends): one clipped interval;
//   - interval × strided (block↔cyclic): the blocks of the strided side
//     that meet the interval form an arithmetic progression, with only the
//     first and last blocks clipped;
//   - strided × strided with one dealt block size b (cyclic↔cyclic,
//     block-cyclic↔block-cyclic): both sides partition the axis into the
//     same aligned size-b blocks, so the intersection is the set of block
//     indices m with m ≡ cs (mod P) and m ≡ cd (mod Q) — by CRT an
//     arithmetic progression with period lcm(P,Q), nonempty iff
//     cs ≡ cd (mod gcd(P,Q)).
//
// Every per-axis intersection is therefore an ixDesc: an O(1)-sized
// descriptor enumerable without materializing anything. Runs are emitted
// arithmetically from the descriptors (local indices come from the O(1)
// per-kind formulas, never from Template.LocalOffset), and all storage is
// carved from a pooled planArena, so the uncached planning path approaches
// zero steady-state allocations. Along the last axis a descriptor's
// progression is kept, not unrolled: it becomes at most three runs — a
// clipped head block, one strided run over the unclipped interior, and a
// clipped tail block — so a block→cyclic plan is O(1) runs per row
// rather than one per element. Per source rank the descriptor work is
// O(M+N) blocks of O(1) arithmetic; total output work is proportional to
// the number of runs, which is the size of the schedule itself.
//
// Applicability is decided by dad.Template.ClosedFormPair; everything else
// (Implicit axes, explicit patch templates, strided pairs with differing
// block sizes) falls back to the enumerating builders.
package schedule

import "mxn/internal/dad"

// ixDesc is the closed-form intersection of one source coordinate's and
// one destination coordinate's owned index sets along a single axis:
// count intervals [start + k*stride, start + k*stride + blen) for k in
// [0, count), each clipped to [clipLo, clipHi). stride ≥ blen, so only
// the first and last interval can actually be clipped; every interval is
// nonempty and lies within a single owned block of BOTH sides, so local
// indices advance by one per global index across it on both sides — which
// is what lets each interval become one contiguous block per row. The
// stride is a multiple of each strided side's b·procs, so consecutive
// intervals sit a fixed local distance apart on both sides (see
// axSide.localStride) — which is what lets the unclipped ones become one
// strided Run.
type ixDesc struct {
	count          int
	start, stride  int
	blen           int
	clipLo, clipHi int
	elems          int
}

// ixFromIntervals intersects two single intervals.
func ixFromIntervals(alo, ahi, blo, bhi int) ixDesc {
	lo, hi := alo, ahi
	if blo > lo {
		lo = blo
	}
	if bhi < hi {
		hi = bhi
	}
	if lo >= hi {
		return ixDesc{}
	}
	return ixDesc{count: 1, start: lo, stride: hi - lo, blen: hi - lo, clipLo: lo, clipHi: hi, elems: hi - lo}
}

// ixIntervalStrided intersects the interval [ilo, ihi) with the strided
// set {m·b + [0, b) : m ≡ c (mod p)}: the qualifying block indices form
// an arithmetic progression with step p.
func ixIntervalStrided(ilo, ihi, c, p, b int) ixDesc {
	if ilo >= ihi {
		return ixDesc{}
	}
	mLo := ilo / b       // first block with (m+1)·b > ilo
	mHi := (ihi - 1) / b // last block with m·b < ihi
	delta := (c - mLo%p + p) % p
	mStart := mLo + delta
	if mStart > mHi {
		return ixDesc{}
	}
	count := (mHi-mStart)/p + 1
	d := ixDesc{
		count:  count,
		start:  mStart * b,
		stride: p * b,
		blen:   b,
		clipLo: ilo,
		clipHi: ihi,
	}
	d.elems = count * b
	if lead := ilo - d.start; lead > 0 {
		d.elems -= lead
	}
	if tail := d.start + (count-1)*d.stride + b - ihi; tail > 0 {
		d.elems -= tail
	}
	return d
}

// egcd returns g = gcd(a, b) and x, y with a·x + b·y = g.
func egcd(a, b int) (g, x, y int) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := egcd(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// ixStridedStrided intersects two strided sets with one block size b over
// an axis of length n: blocks m with m ≡ c1 (mod p1) and m ≡ c2 (mod p2).
// By CRT the solutions (if any) are m ≡ m0 (mod lcm(p1, p2)).
func ixStridedStrided(c1, p1, c2, p2, b, n int) ixDesc {
	g, x, _ := egcd(p1, p2)
	if (c2-c1)%g != 0 {
		return ixDesc{}
	}
	q := p2 / g
	l := p1 / g * p2
	// m = c1 + p1·t with t ≡ inv(p1/g)·((c2-c1)/g) (mod p2/g); x from the
	// extended gcd is that inverse.
	t := (x % q) * ((c2 - c1) / g % q) % q
	t = (t%q + q) % q
	m0 := (c1 + p1*t) % l
	nBlocks := (n + b - 1) / b
	if m0 >= nBlocks {
		return ixDesc{}
	}
	count := (nBlocks-1-m0)/l + 1
	d := ixDesc{
		count:  count,
		start:  m0 * b,
		stride: l * b,
		blen:   b,
		clipLo: 0,
		clipHi: n,
	}
	d.elems = count * b
	if tail := d.start + (count-1)*d.stride + b - n; tail > 0 {
		d.elems -= tail
	}
	return d
}

// axSide is one template's per-axis view with everything the emitter needs
// in O(1): the per-coordinate interval table (interval class), the dealt
// block geometry (strided class) and the per-coordinate local counts.
type axSide struct {
	class  dad.AxisClass
	procs  int
	n      int
	b, bp  int   // strided: block size and b·procs
	lo, hi []int // interval class: per-coordinate owned interval
	cnt    []int // per-coordinate local count
}

// li returns the local index of owned global index g on coordinate c
// (the closed-form equivalent of AxisDist.localIndex).
func (s *axSide) li(g, c int) int {
	if s.class == dad.ClassInterval {
		return g - s.lo[c]
	}
	return (g/s.bp)*s.b + g%s.b
}

// localStride converts the global distance between two consecutive
// intervals of a descriptor into the local distance on this side: equal
// on an interval-class side, and stride/(b·procs) dealt blocks of b on a
// strided-class side (the descriptor's stride is a multiple of b·procs
// there).
func (s *axSide) localStride(stride int) int {
	if s.class == dad.ClassInterval {
		return stride
	}
	return stride / s.bp * s.b
}

// clipped reports whether interval k of d is cut by [clipLo, clipHi).
func (d *ixDesc) clipped(k int) bool {
	lo := d.start + k*d.stride
	return lo < d.clipLo || lo+d.blen > d.clipHi
}

// interior returns the range [k0, k1) of d's unclipped intervals; only
// the first (k0 = 1) and the last (k1 = count-1) can be clipped.
func (d *ixDesc) interior() (k0, k1 int) {
	k0, k1 = 0, d.count
	if d.clipped(0) {
		k0 = 1
	}
	if k1 > k0 && d.clipped(k1-1) {
		k1--
	}
	return k0, k1
}

// lastAxisRuns is the number of runs emit writes per row for a last-axis
// descriptor: a clipped head, a clipped tail, and one run for any
// unclipped interior.
func (d *ixDesc) lastAxisRuns() int {
	k0, k1 := d.interior()
	n := k0 + d.count - k1
	if k1 > k0 {
		n++
	}
	return n
}

// makeSide builds the per-coordinate tables for one axis of one template,
// carving them from the arena. O(procs) arithmetic.
func makeSide(ar *planArena, ax dad.AxisDist, n int) axSide {
	s := axSide{class: ax.Class(), procs: ax.Procs, n: n}
	s.cnt = ar.ints.take(ax.Procs)
	switch s.class {
	case dad.ClassInterval:
		s.lo = ar.ints.take(ax.Procs)
		s.hi = ar.ints.take(ax.Procs)
		switch ax.Kind {
		case dad.Collapsed:
			s.lo[0], s.hi[0] = 0, n
		case dad.Block:
			bl := (n + ax.Procs - 1) / ax.Procs
			for c := 0; c < ax.Procs; c++ {
				lo, hi := c*bl, c*bl+bl
				if lo > n {
					lo = n
				}
				if hi > n {
					hi = n
				}
				s.lo[c], s.hi[c] = lo, hi
			}
		case dad.GenBlock:
			acc := 0
			for c, sz := range ax.Sizes {
				s.lo[c] = acc
				acc += sz
				s.hi[c] = acc
			}
		}
		for c := 0; c < ax.Procs; c++ {
			s.cnt[c] = s.hi[c] - s.lo[c]
		}
	case dad.ClassStrided:
		s.b = ax.StrideBlock()
		s.bp = s.b * ax.Procs
		nBlocks := (n + s.b - 1) / s.b
		clip := nBlocks*s.b - n // shortfall of the globally last block
		for c := 0; c < ax.Procs; c++ {
			if c >= nBlocks {
				s.cnt[c] = 0
				continue
			}
			nb := (nBlocks-1-c)/ax.Procs + 1
			cntC := nb * s.b
			if clip > 0 && (nBlocks-1)%ax.Procs == c {
				cntC -= clip
			}
			s.cnt[c] = cntC
		}
	}
	return s
}

// intersect computes the axis intersection descriptor for source
// coordinate cs and destination coordinate cd. Requires ClosedFormPair.
func intersect(ss, ds *axSide, cs, cd int) ixDesc {
	switch {
	case ss.class == dad.ClassInterval && ds.class == dad.ClassInterval:
		return ixFromIntervals(ss.lo[cs], ss.hi[cs], ds.lo[cd], ds.hi[cd])
	case ss.class == dad.ClassInterval:
		return ixIntervalStrided(ss.lo[cs], ss.hi[cs], cd, ds.procs, ds.b)
	case ds.class == dad.ClassInterval:
		return ixIntervalStrided(ds.lo[cd], ds.hi[cd], cs, ss.procs, ss.b)
	default:
		return ixStridedStrided(cs, ss.procs, cd, ds.procs, ss.b, ss.n)
	}
}

// buildFast computes the schedule arithmetically. The caller has verified
// s.Src.ClosedFormPair(s.Dst) and attached an arena.
func (s *Schedule) buildFast() {
	ar := s.ar
	na := s.Src.NumAxes()

	srcSides := ar.sides.take(na)
	dstSides := ar.sides.take(na)
	for a := 0; a < na; a++ {
		srcSides[a] = makeSide(ar, s.Src.Axis(a), s.Src.Dim(a))
		dstSides[a] = makeSide(ar, s.Dst.Axis(a), s.Dst.Dim(a))
	}

	// Per axis: the full coordinate-pair descriptor table and the packed
	// list (cs·Q + cd) of nonempty pairs, in (cs, cd) lexicographic order.
	descTab := ar.descRows.take(na)
	pairTab := ar.slices.take(na)
	for a := 0; a < na; a++ {
		p, q := srcSides[a].procs, dstSides[a].procs
		descTab[a] = ar.descs.take(p * q)
		pairs := ar.ints.take(p * q)
		np := 0
		for cs := 0; cs < p; cs++ {
			for cd := 0; cd < q; cd++ {
				d := intersect(&srcSides[a], &dstSides[a], cs, cd)
				descTab[a][cs*q+cd] = d
				if d.count > 0 {
					pairs[np] = cs*q + cd
					np++
				}
			}
		}
		pairTab[a] = pairs[:np:np]
	}

	// Walk state: the chosen coordinate pair and descriptor per axis.
	srcC := ar.ints.take(na)
	dstC := ar.ints.take(na)
	cur := ar.descPtrs.take(na)

	// Pass 1: count pairs and runs so the slabs can be carved exactly.
	totalPairs, totalRuns := 0, 0
	var count func(a int)
	count = func(a int) {
		if a == na {
			rows := 1
			for x := 0; x < na-1; x++ {
				rows *= cur[x].elems
			}
			totalRuns += rows * cur[na-1].lastAxisRuns()
			totalPairs++
			return
		}
		q := dstSides[a].procs
		for _, pk := range pairTab[a] {
			cur[a] = &descTab[a][pk]
			srcC[a], dstC[a] = pk/q, pk%q
			count(a + 1)
		}
	}
	count(0)

	pairs := ar.pairs.take(totalPairs)
	runs := ar.runs.take(totalRuns)
	pi, ri := 0, 0

	// emit fills runs for the current leaf: rows iterate the global
	// indices of axes 0..na-2 in ascending order, the last axis emits the
	// descriptor's intervals as head/interior/tail runs (in interval
	// order, so the packed element order is the per-interval one). so/do
	// are the local offsets through the axes above a (off = off·cnt +
	// localIndex at every level, matching Template.LocalOffset's
	// row-major canonical layout).
	var emit func(a, so, do int)
	emit = func(a, so, do int) {
		d := cur[a]
		ss, ds := &srcSides[a], &dstSides[a]
		cs, cd := srcC[a], dstC[a]
		so *= ss.cnt[cs]
		do *= ds.cnt[cd]
		if a == na-1 {
			// block writes interval k clipped to [clipLo, clipHi).
			block := func(k int) {
				lo := d.start + k*d.stride
				hi := min(lo+d.blen, d.clipHi)
				lo = max(lo, d.clipLo)
				runs[ri] = Run{SrcOff: so + ss.li(lo, cs), DstOff: do + ds.li(lo, cd), N: hi - lo}
				ri++
			}
			k0, k1 := d.interior()
			if k0 > 0 {
				block(0)
			}
			if n := k1 - k0; n > 0 {
				lo := d.start + k0*d.stride
				r := Run{SrcOff: so + ss.li(lo, cs), DstOff: do + ds.li(lo, cd), N: d.blen,
					Count: n, SrcStride: ss.localStride(d.stride), DstStride: ds.localStride(d.stride)}
				if n == 1 || r.SrcStride == r.N && r.DstStride == r.N {
					// One block, or contiguous on both sides: a plain run.
					r = Run{SrcOff: r.SrcOff, DstOff: r.DstOff, N: n * r.N}
				}
				runs[ri] = r
				ri++
			}
			if k1 < d.count {
				block(k1)
			}
			return
		}
		base := d.start
		for k := 0; k < d.count; k++ {
			lo, hi := base, base+d.blen
			if lo < d.clipLo {
				lo = d.clipLo
			}
			if hi > d.clipHi {
				hi = d.clipHi
			}
			for g := lo; g < hi; g++ {
				emit(a+1, so+ss.li(g, cs), do+ds.li(g, cd))
			}
			base += d.stride
		}
	}

	// Pass 2: same walk, emitting the pair plans and runs.
	var fill func(a int)
	fill = func(a int) {
		if a == na {
			elems := 1
			for x := 0; x < na; x++ {
				elems *= cur[x].elems
			}
			r0 := ri
			emit(0, 0, 0)
			pairs[pi] = PairPlan{
				SrcRank: s.Src.RankOf(srcC),
				DstRank: s.Dst.RankOf(dstC),
				Runs:    runs[r0:ri:ri],
				Elems:   elems,
			}
			pi++
			return
		}
		q := dstSides[a].procs
		for _, pk := range pairTab[a] {
			cur[a] = &descTab[a][pk]
			srcC[a], dstC[a] = pk/q, pk%q
			fill(a + 1)
		}
	}
	fill(0)
	s.Pairs = pairs[:pi:pi]
}

// indexArena is index() with the lookup tables carved from the arena.
func (s *Schedule) indexArena() {
	ar := s.ar
	np, nq := s.Src.NumProcs(), s.Dst.NumProcs()
	s.bySrc = ar.slices.take(np)
	s.byDst = ar.slices.take(nq)
	srcDeg := ar.ints.take(np)
	dstDeg := ar.ints.take(nq)
	for r := range srcDeg {
		srcDeg[r] = 0
	}
	for r := range dstDeg {
		dstDeg[r] = 0
	}
	for i := range s.Pairs {
		srcDeg[s.Pairs[i].SrcRank]++
		dstDeg[s.Pairs[i].DstRank]++
	}
	srcBack := ar.ints.take(len(s.Pairs))
	dstBack := ar.ints.take(len(s.Pairs))
	off := 0
	for r := 0; r < np; r++ {
		n := srcDeg[r]
		s.bySrc[r] = srcBack[off : off+n : off+n]
		off += n
		srcDeg[r] = 0
	}
	off = 0
	for r := 0; r < nq; r++ {
		n := dstDeg[r]
		s.byDst[r] = dstBack[off : off+n : off+n]
		off += n
		dstDeg[r] = 0
	}
	for i := range s.Pairs {
		sr, dr := s.Pairs[i].SrcRank, s.Pairs[i].DstRank
		s.bySrc[sr][srcDeg[sr]] = i
		srcDeg[sr]++
		s.byDst[dr][dstDeg[dr]] = i
		dstDeg[dr]++
	}
}
