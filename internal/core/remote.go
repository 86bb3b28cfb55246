package core

// Remote payload codec for heartbeat pings, so a failure detector can
// probe ranks on the far side of a comm.ConnectPeer link: the ping
// crosses the wire under tag 3 (see internal/redist/remote.go for the
// module-wide tag registry) and the pong — a bare uint64 sequence number
// — travels through comm's generic codec.

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/wire"
)

func init() {
	comm.RegisterRemotePayload(3, comm.RemoteCodec{
		Encode: func(e *wire.Encoder, v any) bool {
			p, ok := v.(heartbeatPing)
			if !ok {
				return false
			}
			e.PutUvarint(uint64(p.From))
			e.PutUint64(p.Seq)
			return true
		},
		Decode: func(d *wire.Decoder, _ []byte) (any, bool, error) {
			var p heartbeatPing
			p.From = int(d.Uvarint())
			p.Seq = d.Uint64()
			if d.Err() != nil {
				return nil, false, fmt.Errorf("core: corrupt remote heartbeat ping: %w", d.Err())
			}
			return p, false, nil
		},
	})
}
