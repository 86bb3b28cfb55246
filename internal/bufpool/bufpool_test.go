package bufpool

import (
	"sync"
	"testing"
	"unsafe"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 24, numClasses - 1}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	var p Pool
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want class size 128", cap(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	p.Put(b)
	// The next request in the same class reuses the retained buffer.
	b2 := p.Get(70)
	if unsafe.SliceData(b2) != unsafe.SliceData(b) {
		t.Error("buffer not reused after Put")
	}
}

func TestAlignment(t *testing.T) {
	var p Pool
	for _, n := range []int{1, 7, 64, 100, 4096, 1<<24 + 3} {
		b := p.Get(n)
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(b))); addr%8 != 0 {
			t.Errorf("Get(%d): backing array at %#x not 8-byte aligned", n, addr)
		}
		p.Put(b)
	}
}

func TestOversizeNotRetained(t *testing.T) {
	var p Pool
	b := p.Get(1<<24 + 1)
	if len(b) != 1<<24+1 {
		t.Fatalf("oversize len = %d", len(b))
	}
	p.Put(b) // dropped, must not panic or corrupt a class
	b2 := p.Get(64)
	if cap(b2) != 64 {
		t.Fatalf("class 0 corrupted: cap = %d", cap(b2))
	}
}

func TestZeroLength(t *testing.T) {
	var p Pool
	if b := p.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) returned %d bytes", len(b))
	}
	p.Put(nil)
}

func TestBoundedRetention(t *testing.T) {
	var p Pool
	bufs := make([][]byte, maxPerClass+10)
	for i := range bufs {
		bufs[i] = alignedBytes(64)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if got := len(p.classes[0]); got != maxPerClass {
		t.Fatalf("retained %d buffers, want cap %d", got, maxPerClass)
	}
}

// Steady-state Get/Put cycles must not allocate: this is the foundation of
// the redist engine's zero-alloc transfer guarantee.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var p Pool
	p.Put(p.Get(1024)) // warm the class
	allocs := testing.AllocsPerRun(200, func() {
		b := p.Get(1000)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates: %v allocs/op", allocs)
	}
}

func TestConcurrentUse(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get(64 + i%2000)
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer shared while owned")
						return
					}
				}
				p.Put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

// TestGetHeldNeverAllocates: GetHeld hands out a retained buffer of the
// request's class and reports false — allocating nothing — when the
// class is empty or the request is oversize.
func TestGetHeldNeverAllocates(t *testing.T) {
	var p Pool
	if b, ok := p.GetHeld(1000); ok || b != nil {
		t.Fatalf("GetHeld on an empty class = (%d bytes, %v), want (nil, false)", len(b), ok)
	}
	if _, ok := p.GetHeld(1<<24 + 1); ok {
		t.Fatal("GetHeld of an oversize length succeeded")
	}
	if allocs := testing.AllocsPerRun(100, func() { p.GetHeld(1 << 20) }); allocs != 0 {
		t.Fatalf("GetHeld on an empty class allocated %.0f times", allocs)
	}
	b := p.Get(1000)
	p.Put(b)
	before := Outstanding()
	got, ok := p.GetHeld(600)
	if !ok || len(got) != 600 || unsafe.SliceData(got) != unsafe.SliceData(b) {
		t.Fatalf("GetHeld(600) = (%d bytes, %v), want the retained 1 KiB buffer", len(got), ok)
	}
	if d := Outstanding() - before; d != 1 {
		t.Fatalf("GetHeld moved Outstanding by %d, want 1", d)
	}
	p.Put(got)
	if _, ok := p.GetHeld(0); !ok {
		t.Fatal("GetHeld(0) must succeed with a nil buffer")
	}
}
