// Element-boundary windows over a pairwise message's packed order.
//
// The memory-bounded transfer engine moves a message as consecutive
// chunks, each covering the window [off, off+len(chunk)) of the same
// packed element order; a whole-message PackSlice/UnpackSlice is the
// window [0, Elems). The range kernels below skip whole runs by element
// count, seek within a run by off/N, and move the rest with one strided
// gather (or scatter) per run, so chunked and whole-message transfers
// touch exactly the same local elements in exactly the same order and a
// chunk's cost does not grow with the number of blocks before it.
package schedule

// PackSliceRange gathers the window [off, off+len(out)) of plan's
// packed element order from the source rank's local buffer. Packing
// consecutive windows that tile [0, plan.Elems) is equivalent to one
// PackSlice of the whole message.
func PackSliceRange[T any](plan PairPlan, local, out []T, off int) {
	for _, r := range plan.Runs {
		if len(out) == 0 {
			return
		}
		e := r.Elems()
		if off >= e {
			off -= e
			continue
		}
		n := min(e-off, len(out))
		gather(r, local, out[:n], off)
		out = out[n:]
		off = 0
	}
}

// UnpackSliceRange scatters a chunk holding the window
// [off, off+len(data)) of plan's packed element order into the
// destination rank's local buffer.
func UnpackSliceRange[T any](plan PairPlan, local, data []T, off int) {
	for _, r := range plan.Runs {
		if len(data) == 0 {
			return
		}
		e := r.Elems()
		if off >= e {
			off -= e
			continue
		}
		n := min(e-off, len(data))
		scatter(r, local, data[:n], off)
		data = data[n:]
		off = 0
	}
}

// gather copies elements [o, o+len(out)) of run r's packed order out of
// local. A contiguous span is one copy, one-element blocks a tight
// indexed loop, anything else one copy per (possibly partial) block.
func gather[T any](r Run, local, out []T, o int) {
	switch {
	case r.Count <= 1 || r.SrcStride == r.N:
		s := r.SrcOff + o
		copy(out, local[s:s+len(out)])
	case r.N == 1:
		s, st := r.SrcOff+o*r.SrcStride, r.SrcStride
		for i := range out {
			out[i] = local[s]
			s += st
		}
	default:
		s, j := r.SrcOff+o/r.N*r.SrcStride, o%r.N
		for len(out) > 0 {
			m := copy(out, local[s+j:s+r.N])
			out = out[m:]
			s += r.SrcStride
			j = 0
		}
	}
}

// scatter is gather's mirror: it writes data as elements
// [o, o+len(data)) of run r's packed order into local.
func scatter[T any](r Run, local, data []T, o int) {
	switch {
	case r.Count <= 1 || r.DstStride == r.N:
		d := r.DstOff + o
		copy(local[d:d+len(data)], data)
	case r.N == 1:
		d, st := r.DstOff+o*r.DstStride, r.DstStride
		for _, v := range data {
			local[d] = v
			d += st
		}
	default:
		d, j := r.DstOff+o/r.N*r.DstStride, o%r.N
		for len(data) > 0 {
			m := copy(local[d+j:d+r.N], data)
			data = data[m:]
			d += r.DstStride
			j = 0
		}
	}
}
