// Package bufpool provides size-classed reusable byte buffers for the hot
// transfer paths. A steady-state redistribution packs, sends, receives and
// unpacks the same buffer sizes over and over; recycling them through a
// pool removes every per-transfer allocation (guarded by the redist
// alloc tests) and keeps the garbage collector out of the message loop.
//
// Buffers are handed out in power-of-two size classes and their backing
// arrays are 8-byte aligned, so a buffer can be reinterpreted as a slice
// of any supported element type (float64, complex128, ...) without
// violating alignment. Ownership is transferable: the common pattern is
// that a sender Gets and packs a buffer, the in-process runtime carries it
// to the receiver, and the receiver Puts it back after unpacking — the
// pool is safe for that cross-goroutine round trip.
//
// The implementation is a mutex-guarded free list rather than sync.Pool:
// Get and Put never allocate in steady state (sync.Pool's victim cache can
// drop entries at every GC, which would make the zero-alloc guarantees
// flaky), and the retained memory is bounded by maxPerClass buffers per
// size class.
package bufpool

import (
	"sync"
	"unsafe"

	"mxn/internal/obs"
)

const (
	// minClassBits..maxClassBits bound the pooled size classes:
	// 64 B .. 16 MiB. Requests above the largest class are allocated
	// directly and never retained.
	minClassBits = 6
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1

	// maxPerClass bounds retained buffers per class; surplus Puts are
	// dropped for the collector.
	maxPerClass = 64
)

// Pool-level instruments, registered in the process-default registry.
// hits/misses split Get traffic by whether a retained buffer was reused;
// oversize counts requests beyond the largest class (never pooled).
var (
	mGets     = obs.Default().Counter("bufpool.gets")
	mPuts     = obs.Default().Counter("bufpool.puts")
	mHits     = obs.Default().Counter("bufpool.hits")
	mMisses   = obs.Default().Counter("bufpool.misses")
	mOversize = obs.Default().Counter("bufpool.oversize")
	mDropped  = obs.Default().Counter("bufpool.puts_dropped")
)

// Pool is a size-classed buffer pool. The zero value is ready to use; all
// methods are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes [numClasses][][]byte
}

// defaultPool serves the package-level Get/Put used by the transfer
// engine; distinct Pools exist only for tests.
var defaultPool Pool

// classFor returns the class index whose buffers hold at least n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	c := 0
	for 1<<(minClassBits+c) < n {
		c++
		if c >= numClasses {
			return -1
		}
	}
	return c
}

// alignedBytes allocates an 8-byte-aligned byte slice of length n. The
// backing array is a []uint64, so reinterpreting the buffer as elements
// of size up to 8 (or complex128, which needs only 8-byte alignment) is
// always legal.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// Get returns a buffer with length exactly n. The contents are
// unspecified (callers overwrite fully); the capacity is the class size.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	mGets.Inc()
	c := classFor(n)
	if c < 0 {
		mOversize.Inc()
		return alignedBytes(n)
	}
	if b := p.pop(c); b != nil {
		mHits.Inc()
		return b[:n]
	}
	mMisses.Inc()
	return alignedBytes(1 << (minClassBits + c))[:n]
}

// GetHeld returns a length-n buffer only when the pool already holds one
// of n's class: it never allocates, and ok is false when the class is
// empty or n exceeds the largest class. Readers that size a buffer from
// an untrusted length prefix use it to take the whole buffer up front
// only when doing so costs no fresh memory.
func (p *Pool) GetHeld(n int) (b []byte, ok bool) {
	if n == 0 {
		return nil, true
	}
	c := classFor(n)
	if c < 0 {
		return nil, false
	}
	if b = p.pop(c); b == nil {
		return nil, false
	}
	mGets.Inc()
	mHits.Inc()
	return b[:n], true
}

// pop removes a retained buffer of class c, or returns nil.
func (p *Pool) pop(c int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.classes[c]
	if len(stack) == 0 {
		return nil
	}
	b := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	p.classes[c] = stack[:len(stack)-1]
	return b
}

// Put returns a buffer obtained from Get to the pool. Buffers whose
// capacity is not an exact class size (oversize allocations, or foreign
// slices) are dropped; Put(nil) is a no-op.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	mPuts.Inc()
	c := classFor(cap(b))
	if c < 0 || 1<<(minClassBits+c) != cap(b) {
		mDropped.Inc()
		return
	}
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], b[:cap(b)])
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	mDropped.Inc()
}

// Outstanding returns the number of Get calls not yet matched by a Put.
// The counters are process-wide (shared by every Pool), zero-length Gets
// and nil Puts are not counted on either side, and oversize buffers
// count symmetrically even though they are never retained — so the value
// is exactly the number of live buffers callers still owe the pool. The
// borrow-path leak tests assert it returns to a baseline after every
// ownership-transfer scenario.
func Outstanding() int64 {
	return int64(mGets.Value()) - int64(mPuts.Value())
}

// Get returns a length-n buffer from the process-default pool.
func Get(n int) []byte { return defaultPool.Get(n) }

// GetHeld takes a length-n buffer from the process-default pool only if
// one of n's class is already held.
func GetHeld(n int) ([]byte, bool) { return defaultPool.GetHeld(n) }

// Put returns a buffer to the process-default pool.
func Put(b []byte) { defaultPool.Put(b) }
