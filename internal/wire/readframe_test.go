package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"mxn/internal/bufpool"
)

// frameHeader builds the 8-byte [len][CRC-32C] header of a frame that
// claims n payload bytes with checksum sum.
func frameHeader(n, sum uint32) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], n)
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	return hdr[:]
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestReadFrameCorruptLengthGuard: a header claiming 16 MiB or 1 GiB
// followed by only part of the payload, or by the whole payload under a
// wrong checksum, must fail without leaking a pooled buffer and without
// allocating more than twice the bytes the peer actually sent (plus the
// one firstChunk a frame may claim before any payload arrives, and a
// little for the error value). Cases run in increasing size, so each
// one's largest chunks come fresh from the pool.
func TestReadFrameCorruptLengthGuard(t *testing.T) {
	const slack = firstChunk + 1<<10
	type tc struct {
		claim uint32
		sent  int
		crc   bool // send the whole claim under a wrong checksum
	}
	var cases []tc
	for _, sent := range []int{3, 5000, 300 << 10, 3 << 20} {
		cases = append(cases, tc{16 << 20, sent, false}, tc{1 << 30, sent, false})
	}
	cases = append(cases, tc{16 << 20, 16 << 20, true})
	for _, c := range cases {
		t.Run(fmt.Sprintf("claim=%d/sent=%d/crc=%v", c.claim, c.sent, c.crc), func(t *testing.T) {
			body := bytes.Repeat([]byte{0x5a}, c.sent)
			sum := crc32.Checksum(body, frameTable) + 1
			r := io.MultiReader(bytes.NewReader(frameHeader(c.claim, sum)), bytes.NewReader(body))
			baseline := bufpool.Outstanding()
			before := totalAlloc()
			payload, err := ReadFrame(r)
			alloc := totalAlloc() - before
			if err == nil {
				t.Fatalf("ReadFrame accepted a corrupt frame of %d bytes", len(payload))
			}
			if c.crc && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("checksum mismatch reported %v, want ErrCorrupt", err)
			}
			if !c.crc && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("short payload reported %v, want io.ErrUnexpectedEOF", err)
			}
			if d := bufpool.Outstanding() - baseline; d != 0 {
				t.Fatalf("%+d pooled buffers outstanding after the failed read", d)
			}
			if limit := uint64(2*(8+c.sent) + slack); alloc > limit {
				t.Fatalf("allocated %d bytes for %d bytes sent, limit %d", alloc, 8+c.sent, limit)
			}
		})
	}
}

// TestReadFramePooled: frames come back as pooled buffers whatever their
// size — whole-class reads, chunked reads and frames beyond the largest
// class — so Put balances the pool ledger, and each payload starts on an
// 8-byte boundary.
func TestReadFramePooled(t *testing.T) {
	for _, n := range []int{0, 1, firstChunk, firstChunk + 1, 1<<20 + 5, 1<<24 + 3} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		baseline := bufpool.Outstanding()
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
		if n > 0 && unsafePointer(got)%8 != 0 {
			t.Fatalf("n=%d: payload not 8-byte aligned", n)
		}
		bufpool.Put(got)
		if d := bufpool.Outstanding() - baseline; d != 0 {
			t.Fatalf("n=%d: %+d pooled buffers outstanding after Put", n, d)
		}
	}
}

// TestReadFrameReusesHeldBuffer: once the pool holds a buffer of a
// frame's class, reading the frame allocates nothing.
func TestReadFrameReusesHeldBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, bytes.Repeat([]byte{1}, 1<<20+5)); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)
	read := func() {
		r.Reset(wire)
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(got)
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("reading a frame of a held class allocated %.0f times", allocs)
	}
}

func unsafePointer(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
