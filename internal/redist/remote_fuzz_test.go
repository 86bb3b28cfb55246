package redist

import (
	"encoding/binary"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// The receive-side fuzz harness couples a 4-rank world to a raw pipe:
// ranks 0 and 1 are local (1 is dead), ranks 2 and 3 live behind the
// pipe. Fuzz frames are written raw into the far end, so comm's deliver
// and the payload codecs see exactly the bytes a corrupt or hostile peer
// could produce.
const (
	fuzzGroup    = 9
	fuzzGID      = fuzzGroup | 1<<63 // the identity comm.SharedGroup gives fuzzGroup
	fuzzSentinel = "end of fuzz input"
)

// remoteFrame encodes comm's remote frame header, [from][to][tag][gid],
// followed by a codec tag; the caller appends the payload.
func remoteFrame(from, to, tag int, codec byte) *wire.Encoder {
	e := wire.NewEncoder(nil)
	e.PutUvarint(uint64(from))
	e.PutUvarint(uint64(to))
	e.PutInt64(int64(tag))
	e.PutUint64(fuzzGID)
	e.PutByte(codec)
	return e
}

// xferFrame is a remote frame carrying an encoded transfer message.
func xferFrame(from, to int, elems int, ack bool) []byte {
	m := getMsg()
	m.epoch = 2
	m.kind = dad.Float64
	m.elems = elems
	m.ack = ack
	m.have = linear.Set{{Lo: 0, Hi: elems}}
	m.data = bufpool.Get(8 * elems)
	for i := range m.data {
		m.data[i] = byte(i)
	}
	addInFlight(len(m.data))
	e := remoteFrame(from, to, 3, 1)
	encodeXferMsg(e, m)
	return e.Bytes()
}

// withFuzzGID rewrites the group identity of a frame whose header parses
// that far, so anything deliver accepts lands where the harness can take
// it back out of the mailbox.
func withFuzzGID(frame []byte) []byte {
	d := wire.NewDecoder(frame)
	d.Uvarint()
	d.Uvarint()
	d.Int64()
	if d.Err() != nil || d.Remaining() < 8 {
		return frame
	}
	off := len(frame) - d.Remaining()
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint64(out[off:], fuzzGID)
	return out
}

// releasePayload does what a consumer of a delivered payload does with
// pooled memory: transfer messages are recycled, everything else is
// garbage-collected.
func releasePayload(v any) {
	if m, ok := v.(*xferMsg); ok {
		recycle(m)
	}
}

// FuzzRemoteDeliver drives the remote receive path — comm's deliver and
// the generic, xferMsg and linRequest codecs — with arbitrary frames. No
// input may panic, and after every input the pool ledger must be back at
// its baseline: each frame is released exactly once, whether it is
// delivered and consumed, fails to decode, or is dropped for a dead rank.
func FuzzRemoteDeliver(f *testing.F) {
	generic := func(from, to int, v any) []byte {
		e := remoteFrame(from, to, 4, 0)
		e.PutByte(0)
		e.PutValue(v)
		return e.Bytes()
	}
	f.Add(generic(2, 0, []float64{1, 2, 3}))
	f.Add(generic(3, 0, "hello"))
	list := remoteFrame(2, 0, 4, 0)
	list.PutByte(2)
	list.PutUvarint(2)
	list.PutByte(1)
	list.PutInt(7)
	list.PutByte(0)
	list.PutValue([]byte{1, 2})
	f.Add(list.Bytes())
	huge := remoteFrame(2, 0, 4, 0)
	huge.PutByte(2)
	huge.PutUvarint(1 << 63)
	f.Add(huge.Bytes())
	f.Add(xferFrame(2, 0, 5, false))
	f.Add(xferFrame(3, 0, 0, true))
	f.Add(xferFrame(2, 1, 5, false)) // to the dead rank
	f.Add(xferFrame(1, 0, 5, false)) // from the dead rank
	f.Add(xferFrame(0, 2, 5, false)) // to a remote rank
	short := xferFrame(2, 0, 5, false)
	f.Add(short[:len(short)-3])
	lin := remoteFrame(3, 0, 6, 2)
	encodeLinRequest(lin, linRequest{dstRank: 1, epoch: 4, need: linear.Set{{Lo: 3, Hi: 9}}})
	f.Add(lin.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80})

	f.Fuzz(func(t *testing.T, frame []byte) {
		w := comm.NewWorld(4)
		w.Kill(1)
		cs := w.SharedGroup(fuzzGroup, []int{0, 1, 2, 3})
		near, far := transport.Pipe()
		defer far.Close()
		rp := w.ConnectPeer(near, []int{2, 3})

		baseline := bufpool.Outstanding()
		if err := far.Send(withFuzzGID(frame)); err != nil {
			t.Fatal(err)
		}
		end := remoteFrame(2, 0, 1, 0)
		end.PutByte(0)
		end.PutValue(fuzzSentinel)
		// A frame that failed the peer may already have closed the pipe;
		// the refused sentinel then goes straight back to the pool.
		_ = far.Send(end.Bytes())

		// The pump handles frames in order, so the sentinel's arrival
		// means the fuzz frame was dealt with; a frame that fails the
		// peer ends the binding instead.
		deadline := time.Now().Add(10 * time.Second)
	wait:
		for {
			select {
			case <-rp.Done():
				break wait
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("neither the sentinel nor a peer failure arrived")
			}
			v, _, ok := cs[0].RecvTimeout(comm.AnySource, comm.AnyTag, time.Millisecond)
			if !ok {
				continue
			}
			releasePayload(v)
			if v == fuzzSentinel {
				break wait
			}
		}

		rp.Close()
		<-rp.Done()
		for {
			m, err := near.Recv()
			if err != nil {
				break
			}
			bufpool.Put(m)
		}
		for {
			v, _, ok := cs[0].TryRecv(comm.AnySource, comm.AnyTag)
			if !ok {
				break
			}
			releasePayload(v)
		}
		if d := bufpool.Outstanding() - baseline; d != 0 {
			t.Fatalf("%+d pooled buffers outstanding after the frame was handled", d)
		}
	})
}
