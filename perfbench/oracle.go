package main

import "fmt"

// The oracle stamps every op's source data from the seed and the op
// number, so a destination still holding an earlier op's values fails,
// and recomputes the expected destination values in closed form from the
// layout arithmetic (HPF block length ceil(n/p); cyclic owner g mod p),
// independently of the dad/schedule code under test. Values are integers
// below 2^52, exact in float64, so comparisons are bit-for-bit.

const (
	mixOp   = 0x9E3779B97F4A7C15
	mixElem = 0xBF58476D1CE4E5B9
)

// splitmix64 scrambles the seed into the stamp's base.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// stamp is the value of global element g in op k: the top bits of an
// affine function of (k, g), so consecutive elements cost one add.
type stamp struct {
	base  uint64
	shift uint // values are < 2^(64-shift)
}

func newStamp(seed uint64, shift uint) stamp { return stamp{base: splitmix64(seed), shift: shift} }

// start returns the accumulator for element g of op k; advance by mixElem
// per element.
func (s stamp) start(k, g int) uint64 { return s.base + uint64(k)*mixOp + uint64(g)*mixElem }

// blockRange returns the global indices [lo, hi) that rank r owns under
// Block(p) over n elements, with the HPF block length ceil(n/p).
func blockRange(n, p, r int) (lo, hi int) {
	b := (n + p - 1) / p
	return min(r*b, n), min((r+1)*b, n)
}

// fillBlock writes op k's values for rank r's Block(p) fragment into out.
func fillBlock(s stamp, k, n, p, r int, out []float64) {
	lo, _ := blockRange(n, p, r)
	x := s.start(k, lo)
	for i := range out {
		out[i] = float64(x >> s.shift)
		x += mixElem
	}
}

// fillBlockComplex is fillBlock for complex128 (imaginary part = -real).
func fillBlockComplex(s stamp, k, n, p, r int, out []complex128) {
	lo, _ := blockRange(n, p, r)
	x := s.start(k, lo)
	for i := range out {
		v := float64(x >> s.shift)
		out[i] = complex(v, -v)
		x += mixElem
	}
}

// checkBlockComplex verifies rank r's Block(p) destination fragment.
func checkBlockComplex(s stamp, k, n, p, r int, got []complex128) error {
	lo, hi := blockRange(n, p, r)
	if len(got) != hi-lo {
		return fmt.Errorf("rank %d holds %d elements, Block(%d) gives %d", r, len(got), p, hi-lo)
	}
	x := s.start(k, lo)
	for i, c := range got {
		v := float64(x >> s.shift)
		if c != complex(v, -v) {
			return fmt.Errorf("op %d rank %d element %d (global %d): got %v want %v", k, r, i, lo+i, c, complex(v, -v))
		}
		x += mixElem
	}
	return nil
}

// checkCyclic verifies rank r's Cyclic(p) destination fragment: local
// element i is global r + i*p.
func checkCyclic(s stamp, k, n, p, r int, got []float64) error {
	if want := (n - r + p - 1) / p; len(got) != want {
		return fmt.Errorf("rank %d holds %d elements, Cyclic(%d) gives %d", r, len(got), p, want)
	}
	x := s.start(k, r)
	step := uint64(p) * mixElem
	for i, v := range got {
		if want := float64(x >> s.shift); v != want {
			return fmt.Errorf("op %d rank %d element %d (global %d): got %v want %v", k, r, i, r+i*p, v, want)
		}
		x += step
	}
	return nil
}

// checkBlockScaled verifies rank r's Block(p) fragment holds op k's values
// times f.
func checkBlockScaled(s stamp, k, n, p, r int, f float64, got []float64) error {
	lo, hi := blockRange(n, p, r)
	if len(got) != hi-lo {
		return fmt.Errorf("rank %d holds %d elements, Block(%d) gives %d", r, len(got), p, hi-lo)
	}
	x := s.start(k, lo)
	for i, v := range got {
		if want := float64(x>>s.shift) * f; v != want {
			return fmt.Errorf("op %d rank %d element %d (global %d): got %v want %v", k, r, i, lo+i, v, want)
		}
		x += mixElem
	}
	return nil
}
