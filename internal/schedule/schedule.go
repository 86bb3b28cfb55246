// Package schedule computes communication schedules for parallel data
// redistribution (Section 2.3 of the paper).
//
// A schedule specifies, for an array aligned to a source template and an
// array aligned to a destination template over the same global index
// space, exactly which elements every source rank must send to every
// destination rank and where those elements live in each side's canonical
// local buffer. Schedules are computed once and reused across transfers —
// and across different arrays, as long as they conform to the same
// template pair — which is the amortization the paper calls out as the
// reason templates exist.
//
// Schedule construction is not serialized through any coordinator: the
// per-rank views (OutgoingFor/IncomingFor) let each rank build or consume
// only its own part, and Build itself is pure CPU work callable
// independently on every rank.
package schedule

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/dad"
	"mxn/internal/obs"
)

// Schedule-layer instruments. Cache hit/miss counters are process-wide
// aggregates across every Cache instance (each Cache also keeps its own
// counts, see Stats); the build histogram captures the cost the paper's
// reuse argument amortizes away.
var (
	mBuilds      = obs.Default().Counter("schedule.builds")
	mFastBuilds  = obs.Default().Counter("schedule.fast_builds")
	mBuildNS     = obs.Default().Histogram("schedule.build_ns")
	mBuildElems  = obs.Default().Histogram("schedule.build_elems")
	mCacheHits   = obs.Default().Counter("schedule.cache_hits")
	mCacheMisses = obs.Default().Counter("schedule.cache_misses")
	mCacheJoins  = obs.Default().Counter("schedule.cache_joined_flights")
)

// Run is a strided sequence of contiguous blocks moving between local
// buffers: Count blocks of N elements each, block k taken from
// SrcOff+k·SrcStride in the source rank's buffer and landing at
// DstOff+k·DstStride in the destination rank's buffer. A zero Count means
// one block, so Run{SrcOff, DstOff, N} is the plain contiguous span.
//
// The closed-form planner emits one strided run per arithmetic
// progression of intersection blocks instead of one run per block, so a
// block→cyclic plan is a handful of runs rather than one per element.
// Strides are only meaningful when Count > 1.
type Run struct {
	SrcOff, DstOff, N    int
	Count                int
	SrcStride, DstStride int
}

// Blocks returns the number of blocks in the run (at least one).
func (r Run) Blocks() int {
	if r.Count > 1 {
		return r.Count
	}
	return 1
}

// Block returns the source and destination local offsets of block k
// (0 ≤ k < Blocks()); each block covers N elements from there.
func (r Run) Block(k int) (src, dst int) {
	return r.SrcOff + k*r.SrcStride, r.DstOff + k*r.DstStride
}

// Elems returns the number of elements the run moves.
func (r Run) Elems() int { return r.Blocks() * r.N }

// PairPlan is everything one (source rank, destination rank) pair must
// exchange: a list of runs totalling Elems elements, in packed order.
type PairPlan struct {
	SrcRank, DstRank int
	Runs             []Run
	Elems            int
}

// Schedule is a complete redistribution plan between two conforming
// templates. It contains one PairPlan per communicating rank pair; pairs
// with nothing to exchange are absent, so the schedule's size reflects the
// actual communication pattern.
type Schedule struct {
	Src, Dst *dad.Template
	Pairs    []PairPlan

	bySrc [][]int // source rank -> indices into Pairs
	byDst [][]int // destination rank -> indices into Pairs

	ar   *planArena // non-nil for arena-staged (fast path) schedules
	fast bool       // built by the closed-form planner
}

// BuildOpts tunes schedule construction. The zero value is the default:
// use the closed-form fast path whenever the template pair admits it.
type BuildOpts struct {
	// DisableFastPath forces the enumerating builders even for
	// closed-form pairs. Used by the differential test harness and the
	// planning benchmark to compare the two planners; production callers
	// have no reason to set it.
	DisableFastPath bool
}

// Build computes the schedule for redistributing data from src to dst.
// The templates must conform (describe the same global index space).
//
// Regular template pairs whose per-axis intersections have closed forms
// (see dad.Template.ClosedFormPair) are planned arithmetically through a
// pooled arena — the fast path that makes first contact between cohorts
// cheap; everything else falls back to interval/patch enumeration.
func Build(src, dst *dad.Template) (*Schedule, error) {
	return BuildWith(src, dst, BuildOpts{})
}

// BuildWith is Build with explicit options.
func BuildWith(src, dst *dad.Template, opts BuildOpts) (*Schedule, error) {
	if !src.Conforms(dst) {
		return nil, fmt.Errorf("schedule: templates do not conform: %v vs %v", src.Dims(), dst.Dims())
	}
	start := time.Now()
	var s *Schedule
	if !opts.DisableFastPath && src.ClosedFormPair(dst) {
		ar := getArena()
		s = &ar.sched
		*s = Schedule{Src: src, Dst: dst, ar: ar, fast: true}
		s.buildFast()
		s.indexArena()
		mFastBuilds.Inc()
	} else {
		s = &Schedule{Src: src, Dst: dst}
		if !src.IsExplicit() && !dst.IsExplicit() {
			s.buildAxiswise()
		} else {
			s.buildGeneric()
		}
		s.index()
	}
	mBuilds.Inc()
	mBuildNS.ObserveSince(start)
	mBuildElems.Observe(int64(s.TotalElems()))
	obs.Trace().Span(obs.EvScheduleBuild, "", -1, -1, int64(s.TotalElems()), start)
	return s, nil
}

// FastPath reports whether the schedule was built by the closed-form
// planner (as opposed to the interval/patch enumerators).
func (s *Schedule) FastPath() bool { return s.fast }

// index builds the per-rank lookup tables.
func (s *Schedule) index() {
	s.bySrc = make([][]int, s.Src.NumProcs())
	s.byDst = make([][]int, s.Dst.NumProcs())
	for i, p := range s.Pairs {
		s.bySrc[p.SrcRank] = append(s.bySrc[p.SrcRank], i)
		s.byDst[p.DstRank] = append(s.byDst[p.DstRank], i)
	}
}

// buildAxiswise handles regular×regular template pairs. Because per-axis
// distributions are separable, the patch intersection of a rank pair is
// the cartesian product of per-axis interval intersections; computing the
// per-axis tables once avoids re-intersecting for every rank pair.
func (s *Schedule) buildAxiswise() {
	dims := s.Src.Dims()
	na := len(dims)

	// axisIx[a][cs][cd] = interval intersections between source coordinate
	// cs and destination coordinate cd along axis a.
	axisIx := make([][][][]dad.Interval, na)
	for a := 0; a < na; a++ {
		sx := s.Src.Axis(a)
		dx := s.Dst.Axis(a)
		tab := make([][][]dad.Interval, sx.Procs)
		srcIvs := make([][]dad.Interval, sx.Procs)
		dstIvs := make([][]dad.Interval, dx.Procs)
		for c := 0; c < sx.Procs; c++ {
			srcIvs[c] = axisIntervals(sx, dims[a], c)
		}
		for c := 0; c < dx.Procs; c++ {
			dstIvs[c] = axisIntervals(dx, dims[a], c)
		}
		for cs := 0; cs < sx.Procs; cs++ {
			tab[cs] = make([][]dad.Interval, dx.Procs)
			for cd := 0; cd < dx.Procs; cd++ {
				tab[cs][cd] = intersectIntervals(srcIvs[cs], dstIvs[cd])
			}
		}
		axisIx[a] = tab
	}

	// Enumerate communicating coordinate pairs axis by axis, skipping any
	// combination with an empty axis intersection.
	srcCoords := make([]int, na)
	dstCoords := make([]int, na)
	var walk func(a int)
	walk = func(a int) {
		if a == na {
			srcRank := s.Src.RankOf(srcCoords)
			dstRank := s.Dst.RankOf(dstCoords)
			ivLists := make([][]dad.Interval, na)
			for x := 0; x < na; x++ {
				ivLists[x] = axisIx[x][srcCoords[x]][dstCoords[x]]
			}
			plan := s.buildPairFromIntervalProduct(srcRank, dstRank, ivLists)
			if plan.Elems > 0 {
				s.Pairs = append(s.Pairs, plan)
			}
			return
		}
		sx := s.Src.Axis(a)
		dx := s.Dst.Axis(a)
		for cs := 0; cs < sx.Procs; cs++ {
			for cd := 0; cd < dx.Procs; cd++ {
				if len(axisIx[a][cs][cd]) == 0 {
					continue
				}
				srcCoords[a] = cs
				dstCoords[a] = cd
				walk(a + 1)
			}
		}
	}
	walk(0)
}

// buildPairFromIntervalProduct converts the per-axis interval intersection
// lists of one rank pair into contiguous runs. Every cartesian product of
// one interval per axis is a region; each last-axis row of a region is
// one contiguous run in both local layouts (see the layout contiguity
// argument in internal/dad: within one owned interval, local indices
// advance by one per global index for every distribution kind).
func (s *Schedule) buildPairFromIntervalProduct(srcRank, dstRank int, ivLists [][]dad.Interval) PairPlan {
	plan := PairPlan{SrcRank: srcRank, DstRank: dstRank}
	na := len(ivLists)
	sel := make([]int, na)
	idx := make([]int, na)
	for {
		// Region = product of ivLists[a][sel[a]]; iterate its rows.
		rowLen := ivLists[na-1][sel[na-1]].Len()
		for a := 0; a < na; a++ {
			idx[a] = ivLists[a][sel[a]].Lo
		}
		for {
			srcOff := s.Src.LocalOffset(srcRank, idx)
			dstOff := s.Dst.LocalOffset(dstRank, idx)
			plan.Runs = append(plan.Runs, Run{SrcOff: srcOff, DstOff: dstOff, N: rowLen})
			plan.Elems += rowLen
			// Advance to the next row: bump axes na-2..0 within the region.
			a := na - 2
			for a >= 0 {
				idx[a]++
				if idx[a] < ivLists[a][sel[a]].Hi {
					break
				}
				idx[a] = ivLists[a][sel[a]].Lo
				a--
			}
			if a < 0 {
				break
			}
		}
		// Advance to the next region.
		a := na - 1
		for a >= 0 {
			sel[a]++
			if sel[a] < len(ivLists[a]) {
				break
			}
			sel[a] = 0
			a--
		}
		if a < 0 {
			return plan
		}
	}
}

// buildGeneric handles template pairs involving explicit distributions by
// direct patch-list intersection. Destination ranks are planned
// concurrently by a bounded worker pool — templates are read-only during
// planning and each destination's plans are independent — then merged in
// deterministic (src, dst) order, so the parallel build produces exactly
// the schedule the sequential loop did.
func (s *Schedule) buildGeneric() {
	ns := s.Src.NumProcs()
	nd := s.Dst.NumProcs()

	// plansByDst[dstRank][srcRank] is filled by exactly one worker.
	plansByDst := make([][]*PairPlan, nd)
	workers := runtime.GOMAXPROCS(0)
	if workers > nd {
		workers = nd
	}
	if workers <= 1 {
		for d := 0; d < nd; d++ {
			plansByDst[d] = s.planDstRank(d, ns)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					d := int(next.Add(1)) - 1
					if d >= nd {
						return
					}
					plansByDst[d] = s.planDstRank(d, ns)
				}
			}()
		}
		wg.Wait()
	}

	for srcRank := 0; srcRank < ns; srcRank++ {
		for dstRank := 0; dstRank < nd; dstRank++ {
			if row := plansByDst[dstRank]; row != nil {
				if plan := row[srcRank]; plan != nil && plan.Elems > 0 {
					s.Pairs = append(s.Pairs, *plan)
				}
			}
		}
	}
}

// planDstRank intersects one destination rank's patches against every
// source rank, returning per-source plans (nil entries for pairs that do
// not communicate). Patch nesting matches the sequential enumerator:
// destination patch outer, source patch inner.
func (s *Schedule) planDstRank(dstRank, ns int) []*PairPlan {
	dstPatches := s.Dst.Patches(dstRank)
	if len(dstPatches) == 0 {
		return nil
	}
	na := s.Src.NumAxes()
	row := make([]*PairPlan, ns)
	for srcRank := 0; srcRank < ns; srcRank++ {
		srcPatches := s.Src.Patches(srcRank)
		for _, dp := range dstPatches {
			for _, sp := range srcPatches {
				region, ok := sp.Intersect(dp)
				if !ok {
					continue
				}
				plan := row[srcRank]
				if plan == nil {
					plan = &PairPlan{SrcRank: srcRank, DstRank: dstRank}
					row[srcRank] = plan
				}
				appendRegionRuns(plan, s.Src, s.Dst, srcRank, dstRank, region, na)
			}
		}
	}
	return row
}

// appendRegionRuns emits one run per last-axis row of the region.
func appendRegionRuns(plan *PairPlan, src, dst *dad.Template, srcRank, dstRank int, region dad.Patch, na int) {
	rowLen := region.Hi[na-1] - region.Lo[na-1]
	idx := make([]int, na)
	copy(idx, region.Lo)
	for {
		plan.Runs = append(plan.Runs, Run{
			SrcOff: src.LocalOffset(srcRank, idx),
			DstOff: dst.LocalOffset(dstRank, idx),
			N:      rowLen,
		})
		plan.Elems += rowLen
		a := na - 2
		for a >= 0 {
			idx[a]++
			if idx[a] < region.Hi[a] {
				break
			}
			idx[a] = region.Lo[a]
			a--
		}
		if a < 0 {
			return
		}
	}
}

// axisIntervals adapts dad's internal per-axis interval computation, which
// is exposed through Patches; recomputing from the public surface keeps
// the dependency one-way.
func axisIntervals(ax dad.AxisDist, n, c int) []dad.Interval {
	// A single-axis template gives exactly the per-axis intervals.
	t, err := dad.NewTemplate([]int{n}, []dad.AxisDist{ax})
	if err != nil {
		panic(fmt.Sprintf("schedule: invalid axis: %v", err))
	}
	var out []dad.Interval
	for _, p := range t.Patches(c) {
		out = append(out, dad.Interval{Lo: p.Lo[0], Hi: p.Hi[0]})
	}
	return out
}

// intersectIntervals merges two sorted disjoint interval lists.
func intersectIntervals(a, b []dad.Interval) []dad.Interval {
	var out []dad.Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Lo
		if b[j].Lo > lo {
			lo = b[j].Lo
		}
		hi := a[i].Hi
		if b[j].Hi < hi {
			hi = b[j].Hi
		}
		if lo < hi {
			out = append(out, dad.Interval{Lo: lo, Hi: hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// OutgoingFor returns the plans where rank is the source.
func (s *Schedule) OutgoingFor(rank int) []PairPlan {
	out := make([]PairPlan, 0, len(s.bySrc[rank]))
	for _, i := range s.bySrc[rank] {
		out = append(out, s.Pairs[i])
	}
	return out
}

// IncomingFor returns the plans where rank is the destination.
func (s *Schedule) IncomingFor(rank int) []PairPlan {
	out := make([]PairPlan, 0, len(s.byDst[rank]))
	for _, i := range s.byDst[rank] {
		out = append(out, s.Pairs[i])
	}
	return out
}

// OutDegree returns the number of plans where rank is the source.
// Together with OutgoingAt it is the allocation-free alternative to
// OutgoingFor, used by the steady-state transfer engine.
func (s *Schedule) OutDegree(rank int) int { return len(s.bySrc[rank]) }

// OutgoingAt returns the i-th plan (0 ≤ i < OutDegree(rank)) where rank is
// the source, without allocating.
func (s *Schedule) OutgoingAt(rank, i int) PairPlan { return s.Pairs[s.bySrc[rank][i]] }

// InDegree returns the number of plans where rank is the destination.
func (s *Schedule) InDegree(rank int) int { return len(s.byDst[rank]) }

// IncomingAt returns the i-th plan (0 ≤ i < InDegree(rank)) where rank is
// the destination, without allocating.
func (s *Schedule) IncomingAt(rank, i int) PairPlan { return s.Pairs[s.byDst[rank][i]] }

// TotalElems returns the number of elements the schedule moves; for a
// complete redistribution this equals the template size.
func (s *Schedule) TotalElems() int {
	n := 0
	for _, p := range s.Pairs {
		n += p.Elems
	}
	return n
}

// NumMessages returns the number of communicating rank pairs.
func (s *Schedule) NumMessages() int { return len(s.Pairs) }

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("Schedule(%d→%d ranks, %d messages, %d elements)",
		s.Src.NumProcs(), s.Dst.NumProcs(), s.NumMessages(), s.TotalElems())
}

// Pack gathers a plan's elements from the source rank's local buffer into
// out, which must have length plan.Elems.
func Pack(plan PairPlan, local, out []float64) { PackSlice(plan, local, out) }

// Unpack scatters a packed buffer into the destination rank's local
// buffer.
func Unpack(plan PairPlan, local, data []float64) { UnpackSlice(plan, local, data) }

// PackSlice is Pack for any element type: schedules are element-agnostic
// (runs are element counts and offsets), so one plan moves float32 or
// complex128 arrays exactly as it moves float64 ones. It is the window
// [0, plan.Elems) of PackSliceRange.
func PackSlice[T any](plan PairPlan, local, out []T) {
	PackSliceRange(plan, local, out[:plan.Elems], 0)
}

// UnpackSlice is Unpack for any element type: the window [0, plan.Elems)
// of UnpackSliceRange.
func UnpackSlice[T any](plan PairPlan, local, data []T) {
	UnpackSliceRange(plan, local, data[:plan.Elems], 0)
}

// Cache memoizes schedules by template pair. The cache is safe for
// concurrent use, and concurrent misses for one pair are deduplicated
// singleflight-style: the first caller builds, later callers wait on the
// in-flight build and share its result, so a planning stampede (every
// rank of a cohort hitting first contact — or a post-failure re-plan —
// at the same instant) runs the planner exactly once per pair.
type Cache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry

	hits, misses, builds int
}

// cacheEntry is one resident or in-flight schedule. ready is closed when
// the build completes; done mirrors it under the cache mutex so Get can
// classify hit-vs-join without receiving.
type cacheEntry struct {
	ready chan struct{}
	done  bool
	s     *Schedule
	err   error
}

// NewCache returns an empty schedule cache.
func NewCache() *Cache { return &Cache{m: map[string]*cacheEntry{}} }

// Get returns the schedule for (src, dst), building and retaining it on
// first use. Callers that arrive while another goroutine is building the
// same pair block until that build completes and receive its schedule
// (counted as misses — the plan was not resident when they asked).
func (c *Cache) Get(src, dst *dad.Template) (*Schedule, error) {
	key := src.Key() + "\x00" + dst.Key()
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if e.done {
			c.hits++
			c.mu.Unlock()
			mCacheHits.Inc()
			return e.s, e.err
		}
		c.misses++
		c.mu.Unlock()
		mCacheMisses.Inc()
		mCacheJoins.Inc()
		<-e.ready
		return e.s, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.m[key] = e
	c.misses++
	c.builds++
	c.mu.Unlock()
	mCacheMisses.Inc()

	e.s, e.err = Build(src, dst)
	c.mu.Lock()
	e.done = true
	if e.err != nil {
		// Failed builds are not retained: a later Get retries. (Joined
		// waiters of this flight still observe the error.)
		if cur, ok := c.m[key]; ok && cur == e {
			delete(c.m, key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.s, e.err
}

// Stats returns cache hit and miss counts. A Get that joined an
// in-flight build counts as a miss.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Builds returns how many planner invocations the cache has performed —
// with singleflight dedup, at most one per distinct resident pair plus
// one per invalidation or failed build.
func (c *Cache) Builds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}
