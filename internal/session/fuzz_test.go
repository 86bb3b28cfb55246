package session

import (
	"bytes"
	"testing"
)

// FuzzSessionFrame hammers the handshake/ack/data codec: decodeFrame
// must never panic on arbitrary bytes, and any frame that decodes must
// re-encode to exactly the input (the codec is canonical — no two wire
// forms decode to the same frame). The seeds are frames in the trailer
// layout, kind byte last.
func FuzzSessionFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeHello(nil, 0x1122334455667788, 42, true))
	f.Add(encodeHello(nil, 1, 0, false))
	f.Add(encodeWelcome(nil, 7, 99))
	f.Add(encodeReject(nil, 7, "unknown session"))
	f.Add(encodeReject(nil, 0, ""))
	data := make([]byte, 5+dataTrailerLen)
	putDataTrailer(data[copy(data, "hello"):], 3, 2)
	f.Add(data)
	empty := make([]byte, dataTrailerLen)
	putDataTrailer(empty, 1, 0)
	f.Add(empty)
	ack := make([]byte, ackLen)
	putAck(ack, 12)
	f.Add(ack)
	f.Add([]byte{0x00, 0xff})
	f.Add([]byte{kindData})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, kindAck})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFrame(b)
		if err != nil {
			return
		}
		var re []byte
		switch fr.kind {
		case kindHello:
			re = encodeHello(nil, fr.id, fr.ack, fr.resume)
		case kindWelcome:
			re = encodeWelcome(nil, fr.id, fr.ack)
		case kindReject:
			re = encodeReject(nil, fr.id, string(fr.payload))
		case kindData:
			re = make([]byte, len(fr.payload)+dataTrailerLen)
			putDataTrailer(re[copy(re, fr.payload):], fr.seq, fr.ack)
		case kindAck:
			re = make([]byte, ackLen)
			putAck(re, fr.ack)
		default:
			t.Fatalf("decodeFrame returned unknown kind %#02x", fr.kind)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  % x\n out % x", b, re)
		}
	})
}
