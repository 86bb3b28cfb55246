package schedule

import (
	"math/rand"
	"sort"
	"testing"

	"mxn/internal/dad"
)

// The closed-form planner and the patch-enumeration planner are free to
// split, stride and order runs differently (all are valid schedules);
// equivalence is judged on the canonical form: per rank pair, every run
// expanded into its contiguous blocks, the blocks sorted by source offset
// and coalesced where adjacent in both local spaces.
type pairKey struct{ src, dst int }

func canonicalRuns(s *Schedule) map[pairKey][]Run {
	out := make(map[pairKey][]Run, len(s.Pairs))
	for _, p := range s.Pairs {
		k := pairKey{p.SrcRank, p.DstRank}
		for _, r := range p.Runs {
			for b := 0; b < r.Blocks(); b++ {
				so, do := r.Block(b)
				out[k] = append(out[k], Run{SrcOff: so, DstOff: do, N: r.N})
			}
		}
	}
	for k, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].SrcOff < runs[j].SrcOff })
		merged := runs[:0]
		for _, r := range runs {
			if n := len(merged); n > 0 {
				last := &merged[n-1]
				if last.SrcOff+last.N == r.SrcOff && last.DstOff+last.N == r.DstOff {
					last.N += r.N
					continue
				}
			}
			merged = append(merged, r)
		}
		out[k] = merged
	}
	return out
}

// diffSchedules fails the test if two schedules are not element-for-element
// identical after canonicalization.
func diffSchedules(t *testing.T, label string, got, want *Schedule) {
	t.Helper()
	g, w := canonicalRuns(got), canonicalRuns(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d communicating pairs, want %d", label, len(g), len(w))
	}
	for k, wr := range w {
		gr, ok := g[k]
		if !ok {
			t.Fatalf("%s: pair %d→%d missing", label, k.src, k.dst)
		}
		if len(gr) != len(wr) {
			t.Fatalf("%s: pair %d→%d has %d canonical runs, want %d\n got: %v\nwant: %v",
				label, k.src, k.dst, len(gr), len(wr), gr, wr)
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("%s: pair %d→%d run %d = %+v, want %+v",
					label, k.src, k.dst, i, gr[i], wr[i])
			}
		}
	}
}

// checkCoverage asserts the schedule touches every source-local and every
// destination-local offset exactly once — together with TotalElems ==
// Size this is conservation: no element dropped, duplicated, or invented.
func checkCoverage(t *testing.T, label string, s *Schedule) {
	t.Helper()
	srcSeen := make([][]bool, s.Src.NumProcs())
	for r := range srcSeen {
		srcSeen[r] = make([]bool, s.Src.LocalCount(r))
	}
	dstSeen := make([][]bool, s.Dst.NumProcs())
	for r := range dstSeen {
		dstSeen[r] = make([]bool, s.Dst.LocalCount(r))
	}
	for _, p := range s.Pairs {
		elems := 0
		for _, run := range p.Runs {
			for b := 0; b < run.Blocks(); b++ {
				so, do := run.Block(b)
				for i := 0; i < run.N; i++ {
					if srcSeen[p.SrcRank][so+i] {
						t.Fatalf("%s: src rank %d offset %d sent twice", label, p.SrcRank, so+i)
					}
					srcSeen[p.SrcRank][so+i] = true
					if dstSeen[p.DstRank][do+i] {
						t.Fatalf("%s: dst rank %d offset %d written twice", label, p.DstRank, do+i)
					}
					dstSeen[p.DstRank][do+i] = true
				}
			}
			elems += run.Elems()
		}
		if elems != p.Elems {
			t.Fatalf("%s: pair %d→%d runs move %d elements, plan says %d", label, p.SrcRank, p.DstRank, elems, p.Elems)
		}
	}
	for r, seen := range srcSeen {
		for off, ok := range seen {
			if !ok {
				t.Fatalf("%s: src rank %d offset %d never sent", label, r, off)
			}
		}
	}
	for r, seen := range dstSeen {
		for off, ok := range seen {
			if !ok {
				t.Fatalf("%s: dst rank %d offset %d never written", label, r, off)
			}
		}
	}
}

// randomRegularAxis draws from the regular distribution kinds only —
// irregular kinds (Implicit, GenBlock is regular but interval-class) never
// take the closed-form path, so the differential harness concentrates on
// pairs the fast path actually plans.
func randomRegularAxis(rng *rand.Rand, n int) dad.AxisDist {
	p := 1 + rng.Intn(4)
	switch rng.Intn(5) {
	case 0:
		return dad.CollapsedAxis()
	case 1:
		return dad.BlockAxis(p)
	case 2:
		return dad.CyclicAxis(p)
	case 3:
		return dad.BlockCyclicAxis(p, 1+rng.Intn(4))
	default:
		sizes := make([]int, p)
		left := n
		for i := 0; i < p-1; i++ {
			s := 0
			if left > 0 {
				s = rng.Intn(left + 1)
			}
			sizes[i] = s
			left -= s
		}
		sizes[p-1] = left
		return dad.GenBlockAxis(sizes)
	}
}

// Differential property: for every closed-form template pair, the
// arithmetic planner and the patch-enumeration planner must produce
// element-for-element identical schedules.
func TestDifferentialFastVsEnumerator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planned := 0
	for trial := 0; trial < 400; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 1 + rng.Intn(20)
		}
		mkAxes := func() []dad.AxisDist {
			axes := make([]dad.AxisDist, nd)
			for a := range axes {
				axes[a] = randomRegularAxis(rng, dims[a])
			}
			return axes
		}
		src, err := dad.NewTemplate(dims, mkAxes())
		if err != nil {
			t.Fatal(err)
		}
		dst, err := dad.NewTemplate(dims, mkAxes())
		if err != nil {
			t.Fatal(err)
		}
		if !src.ClosedFormPair(dst) {
			// Incompatible strided block sizes: the fast path must
			// decline, and Build must still succeed via the enumerator.
			s := mustBuild(t, src, dst)
			if s.FastPath() {
				t.Fatalf("trial %d (%s → %s): fast path engaged for a non-closed-form pair",
					trial, src.Key(), dst.Key())
			}
			continue
		}
		planned++

		fast, err := Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.FastPath() {
			t.Fatalf("trial %d (%s → %s): closed-form pair fell back to the enumerator",
				trial, src.Key(), dst.Key())
		}
		ref, err := BuildWith(src, dst, BuildOpts{DisableFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref.FastPath() {
			t.Fatal("DisableFastPath did not disable the fast path")
		}

		label := src.Key() + " → " + dst.Key()
		if fast.TotalElems() != src.Size() {
			t.Fatalf("%s: fast plan moves %d of %d elements", label, fast.TotalElems(), src.Size())
		}
		diffSchedules(t, label, fast, ref)
		checkCoverage(t, label, fast)

		// The plan must also be executable: values survive the transfer.
		verifyRedistribution(t, dst, executeLocally(fast, fillByGlobal(src)))
		if t.Failed() {
			t.Fatalf("trial %d failed: %s", trial, label)
		}
		fast.Recycle()
	}
	if planned < 100 {
		t.Fatalf("only %d of 400 trials exercised the fast path — generator drifted", planned)
	}
}

// Directed cases covering every closed-form intersection class and the
// clipping edge cases (partial trailing blocks, extents far from multiples
// of block×procs, single-rank axes).
func TestDifferentialDirectedCases(t *testing.T) {
	cases := []struct {
		name     string
		dims     []int
		src, dst []dad.AxisDist
	}{
		{"block-block-1d", []int{17}, []dad.AxisDist{dad.BlockAxis(3)}, []dad.AxisDist{dad.BlockAxis(4)}},
		{"block-cyclic-1d", []int{23}, []dad.AxisDist{dad.BlockAxis(4)}, []dad.AxisDist{dad.CyclicAxis(3)}},
		{"cyclic-block-1d", []int{23}, []dad.AxisDist{dad.CyclicAxis(3)}, []dad.AxisDist{dad.BlockAxis(4)}},
		{"cyclic-cyclic-1d", []int{29}, []dad.AxisDist{dad.CyclicAxis(4)}, []dad.AxisDist{dad.CyclicAxis(6)}},
		{"bcyclic-bcyclic-equal-b", []int{37}, []dad.AxisDist{dad.BlockCyclicAxis(3, 4)}, []dad.AxisDist{dad.BlockCyclicAxis(5, 4)}},
		{"bcyclic-block-partial-tail", []int{19}, []dad.AxisDist{dad.BlockCyclicAxis(3, 4)}, []dad.AxisDist{dad.BlockAxis(2)}},
		{"genblock-cyclic", []int{16}, []dad.AxisDist{dad.GenBlockAxis([]int{0, 7, 9})}, []dad.AxisDist{dad.CyclicAxis(5)}},
		{"collapsed-bcyclic", []int{21}, []dad.AxisDist{dad.CollapsedAxis()}, []dad.AxisDist{dad.BlockCyclicAxis(2, 5)}},
		{"2d-transpose", []int{12, 18},
			[]dad.AxisDist{dad.BlockAxis(3), dad.CollapsedAxis()},
			[]dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(3)}},
		{"2d-mixed", []int{11, 13},
			[]dad.AxisDist{dad.CyclicAxis(2), dad.BlockAxis(3)},
			[]dad.AxisDist{dad.BlockCyclicAxis(3, 1), dad.GenBlockAxis([]int{4, 0, 9})}},
		{"3d-strided-last-axis", []int{5, 6, 14},
			[]dad.AxisDist{dad.BlockAxis(2), dad.CollapsedAxis(), dad.CyclicAxis(3)},
			[]dad.AxisDist{dad.CyclicAxis(2), dad.BlockAxis(2), dad.CyclicAxis(2)}},
		{"single-element", []int{1}, []dad.AxisDist{dad.BlockAxis(3)}, []dad.AxisDist{dad.CyclicAxis(2)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := tpl(t, c.dims, c.src...)
			dst := tpl(t, c.dims, c.dst...)
			if !src.ClosedFormPair(dst) {
				t.Fatalf("case is not closed-form: %s → %s", src.Key(), dst.Key())
			}
			fast := mustBuild(t, src, dst)
			if !fast.FastPath() {
				t.Fatal("fast path did not engage")
			}
			ref, err := BuildWith(src, dst, BuildOpts{DisableFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			diffSchedules(t, c.name, fast, ref)
			checkCoverage(t, c.name, fast)
			verifyRedistribution(t, dst, executeLocally(fast, fillByGlobal(src)))
		})
	}
}

// Recycled arenas must not leak one build's state into the next: plan,
// recycle, plan a different pair from the same arena, and verify both the
// schedule and the coverage invariants.
func TestFastPathArenaReuse(t *testing.T) {
	pairs := []struct{ src, dst *dad.Template }{
		{tpl(t, []int{64}, dad.BlockAxis(4)), tpl(t, []int{64}, dad.CyclicAxis(3))},
		{tpl(t, []int{9}, dad.CyclicAxis(2)), tpl(t, []int{9}, dad.BlockAxis(5))},
		{tpl(t, []int{30, 7}, dad.BlockAxis(2), dad.CyclicAxis(3)), tpl(t, []int{30, 7}, dad.CyclicAxis(5), dad.CollapsedAxis())},
		{tpl(t, []int{64}, dad.BlockAxis(4)), tpl(t, []int{64}, dad.CyclicAxis(3))},
	}
	for round := 0; round < 3; round++ {
		for i, p := range pairs {
			fast := mustBuild(t, p.src, p.dst)
			if !fast.FastPath() {
				t.Fatalf("round %d pair %d: fast path did not engage", round, i)
			}
			ref, err := BuildWith(p.src, p.dst, BuildOpts{DisableFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			label := p.src.Key() + " → " + p.dst.Key()
			diffSchedules(t, label, fast, ref)
			checkCoverage(t, label, fast)
			fast.Recycle()
		}
	}
}

// The closed-form planner keeps each last-axis progression as one strided
// run (plus at most a clipped head and tail block) instead of one run per
// block: a block→cyclic plan over 1M elements stays a handful of runs per
// pair, and a progression contiguous on both sides collapses to one plain
// run.
func TestFastPathRunCounts(t *testing.T) {
	const n = 1 << 20
	cases := []struct {
		name     string
		src, dst dad.AxisDist
		check    func(t *testing.T, p PairPlan)
	}{
		{"block2-cyclic3", dad.BlockAxis(2), dad.CyclicAxis(3), func(t *testing.T, p PairPlan) {
			if len(p.Runs) > 3 {
				t.Fatalf("pair %d→%d: %d runs, want ≤ 3", p.SrcRank, p.DstRank, len(p.Runs))
			}
		}},
		{"cyclic3-cyclic3", dad.CyclicAxis(3), dad.CyclicAxis(3), func(t *testing.T, p PairPlan) {
			if len(p.Runs) != 1 || p.Runs[0].Blocks() != 1 {
				t.Fatalf("pair %d→%d: runs %+v, want one single-block run", p.SrcRank, p.DstRank, p.Runs)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustBuild(t, tpl(t, []int{n}, c.src), tpl(t, []int{n}, c.dst))
			if !s.FastPath() {
				t.Fatal("fast path did not engage")
			}
			for _, p := range s.Pairs {
				c.check(t, p)
			}
			if s.TotalElems() != n {
				t.Fatalf("plan moves %d of %d elements", s.TotalElems(), n)
			}
			s.Recycle()
		})
	}
}
