package schedule

import (
	"math"
	"testing"

	"mxn/internal/dad"
)

// kernelWorlds are template pairs with interesting run structure: strided
// runs of one-element and multi-element blocks, clipped heads and tails,
// and plain runs, so chunk windows land mid-run and mid-block.
func kernelWorlds(t *testing.T) []struct{ src, dst *dad.Template } {
	t.Helper()
	return []struct{ src, dst *dad.Template }{
		{tpl(t, []int{64}, dad.BlockAxis(4)), tpl(t, []int{64}, dad.CyclicAxis(4))},
		{tpl(t, []int{64}, dad.CyclicAxis(3)), tpl(t, []int{64}, dad.BlockAxis(2))},
		{tpl(t, []int{50}, dad.CyclicAxis(4)), tpl(t, []int{50}, dad.CyclicAxis(6))},
		{tpl(t, []int{60}, dad.BlockCyclicAxis(3, 5)), tpl(t, []int{60}, dad.BlockAxis(4))},
		{tpl(t, []int{190}, dad.BlockCyclicAxis(3, 5)), tpl(t, []int{190}, dad.BlockAxis(4))},
		{tpl(t, []int{190}, dad.BlockAxis(4)), tpl(t, []int{190}, dad.BlockCyclicAxis(3, 5))},
		{tpl(t, []int{8, 8}, dad.BlockAxis(2), dad.CollapsedAxis()), tpl(t, []int{8, 8}, dad.CollapsedAxis(), dad.BlockAxis(2))},
		{tpl(t, []int{6, 61}, dad.BlockAxis(2), dad.BlockCyclicAxis(2, 3)), tpl(t, []int{6, 61}, dad.CyclicAxis(3), dad.BlockAxis(2))},
		{tpl(t, []int{64}, dad.CyclicAxis(4)), tpl(t, []int{64}, dad.CyclicAxis(4))},
	}
}

// checkKernelWindows moves every pair of the fast plan through the range
// kernels in windows of win elements and checks the result bit for bit
// against naive per-element loops:
//
//   - the packed stream equals a per-element walk of the plan's blocks
//     (so the packed order is the plan's order, unchanged by the kernel);
//   - placing that stream per element, and unpacking the walked stream
//     through the scatter kernel, both land exactly what a per-element
//     pack and unpack of the enumerator's plan (ref) lands.
func checkKernelWindows(t *testing.T, label string, fast, ref *Schedule, win int) {
	t.Helper()
	refPairs := make(map[pairKey]PairPlan, len(ref.Pairs))
	for _, p := range ref.Pairs {
		refPairs[pairKey{p.SrcRank, p.DstRank}] = p
	}
	for _, p := range fast.Pairs {
		local := make([]float64, fast.Src.LocalCount(p.SrcRank))
		for i := range local {
			local[i] = float64(i + 1)
		}
		nDst := fast.Dst.LocalCount(p.DstRank)

		// The oracle: the enumerator's runs, element by element.
		want := make([]float64, nDst)
		for _, r := range refPairs[pairKey{p.SrcRank, p.DstRank}].Runs {
			if r.Count > 1 {
				t.Fatalf("%s: enumerator emitted a strided run %+v", label, r)
			}
			for i := 0; i < r.N; i++ {
				want[r.DstOff+i] = local[r.SrcOff+i]
			}
		}

		// Per-element walk of the fast plan's blocks, in packed order.
		walked := make([]float64, 0, p.Elems)
		placed := make([]int, 0, p.Elems)
		for _, r := range p.Runs {
			for b := 0; b < r.Blocks(); b++ {
				so, do := r.Block(b)
				for i := 0; i < r.N; i++ {
					walked = append(walked, local[so+i])
					placed = append(placed, do+i)
				}
			}
		}
		if len(walked) != p.Elems {
			t.Fatalf("%s: pair %d→%d blocks hold %d elements, plan says %d",
				label, p.SrcRank, p.DstRank, len(walked), p.Elems)
		}

		packed := make([]float64, p.Elems)
		unpacked := make([]float64, nDst)
		for off := 0; off < p.Elems; off += win {
			n := min(win, p.Elems-off)
			PackSliceRange(p, local, packed[off:off+n], off)
			UnpackSliceRange(p, unpacked, walked[off:off+n], off)
		}
		viaPack := make([]float64, nDst)
		for k, v := range packed {
			if math.Float64bits(v) != math.Float64bits(walked[k]) {
				t.Fatalf("%s: pair %d→%d window %d: packed elem %d = %v, want %v",
					label, p.SrcRank, p.DstRank, win, k, v, walked[k])
			}
			viaPack[placed[k]] = v
		}
		for i := range want {
			if math.Float64bits(viaPack[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: pair %d→%d window %d: packed stream lands %v at dst %d, enumerator %v",
					label, p.SrcRank, p.DstRank, win, viaPack[i], i, want[i])
			}
			if math.Float64bits(unpacked[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: pair %d→%d window %d: unpacked dst %d = %v, enumerator %v",
					label, p.SrcRank, p.DstRank, win, i, unpacked[i], want[i])
			}
		}
	}
}

// Consecutive PackSliceRange/UnpackSliceRange windows tiling [0, Elems)
// must match the enumerator-plan oracle for every window size, including
// sizes that split runs and blocks mid-way; the window [0, Elems) is the
// whole-message PackSlice/UnpackSlice.
func TestSliceRangeTilesWholeMessage(t *testing.T) {
	for _, w := range kernelWorlds(t) {
		fast := mustBuild(t, w.src, w.dst)
		if !fast.FastPath() {
			t.Fatalf("%s → %s: fast path did not engage", w.src.Key(), w.dst.Key())
		}
		ref, err := BuildWith(w.src, w.dst, BuildOpts{DisableFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		label := w.src.Key() + " → " + w.dst.Key()
		for _, win := range []int{1, 2, 3, 4, 7, 11, w.src.Size()/5 + 1, w.src.Size()} {
			checkKernelWindows(t, label, fast, ref, win)
		}
	}
}

// A zero-length window is a no-op wherever it lands.
func TestSliceRangeZeroWindow(t *testing.T) {
	w := kernelWorlds(t)[0]
	s := mustBuild(t, w.src, w.dst)
	p := s.Pairs[0]
	local := make([]float64, w.src.LocalCount(p.SrcRank))
	PackSliceRange(p, local, nil, 0)
	PackSliceRange(p, local, nil, p.Elems/2)
	UnpackSliceRange(p, make([]float64, w.dst.LocalCount(p.DstRank)), nil, 0)
}
