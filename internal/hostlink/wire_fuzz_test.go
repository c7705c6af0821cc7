package hostlink

import (
	"bytes"
	"math"
	"testing"

	"celestial/internal/constellation"
)

// FuzzDecodeFrame hammers the frame decoder with arbitrary payloads for
// arbitrary frame types. The decoder's contract under corruption is
// strict: truncated payloads, oversized element counts and unknown frame
// types must return an error — never panic, and never allocate past the
// payload (the reader's count() bound). Successful decodes must be
// canonical: re-encoding and re-decoding the value is a fixed point.
func FuzzDecodeFrame(f *testing.F) {
	// Seed the corpus with one valid encoding per frame type so the
	// fuzzer mutates structurally interesting inputs from the start.
	seeds := []any{
		&Hello{Version: ProtocolVersion, Agent: 1, Cursor: 5, Digest: 9, Flags: HelloApply, Token: "secret"},
		&Welcome{Version: ProtocolVersion, Agent: 1, Shards: 4, Generation: 7, Flags: HelloApply, Seed: 42},
		&Snapshot{Agent: 2, Generation: 3, Digest: 11, T: 6,
			Active: []int32{1}, Inactive: []int32{2}, Links: []LinkState{{A: 1, B: 2, DelayQ: 3}}},
		&DiffFrame{Agent: 2, Generation: 4, Flags: FlagChanged | FlagActivity, DiffRecord: constellation.DiffRecord{
			T: 8, BaseT: 6, Degraded: 1, CarriedPaths: 2,
			Added:     []constellation.LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 3}},
			Removed:   []constellation.LinkDelta{{A: 2, B: 3, OldQ: 4, NewQ: -1}},
			Activated: []int32{9}, Deactivated: []int32{7}}},
		&DiffFrame{Agent: 1, Generation: 1, DiffRecord: constellation.DiffRecord{T: 2, BaseT: math.NaN(), Full: true}},
		&Ack{Agent: 1, Generation: 4, Digest: 2},
		&Heartbeat{Generation: 4},
		&Bye{Reason: "run complete"},
		&Propose{Agent: 1, Generation: 4, Flags: FlagSweep | FlagInvalidate},
		&Applied{Agent: 1, Generation: 4, Digest: 2, Attempts: 3, Retried: 2},
		&Commit{Agent: 1, Generation: 4, Digest: 2},
		&Reassign{Shard: 1, Epoch: 2, Generation: 4},
	}
	for _, s := range seeds {
		frame, err := appendFrame(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4], frame[5:]) // type byte + payload, sans length prefix
		// Truncation variants of every seed.
		if len(frame) > 6 {
			f.Add(frame[4], frame[5:len(frame)-1])
			f.Add(frame[4], frame[5:5])
		}
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		v, err := decodeFrame(FrameType(typ), payload)
		if err != nil {
			if v != nil && FrameType(typ) != FrameHello {
				// Partially decoded values are fine for the sticky reader,
				// but the error must be reported.
				_ = v
			}
			return
		}
		// A successful decode must re-encode, and the re-encoding must
		// decode to the same payload bytes (canonical form) — except Bye,
		// whose payload is the raw reason string by construction.
		enc, err := appendFrame(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if _, err := decodeFrame(FrameType(enc[4]), enc[5:]); err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		if FrameType(typ) != FrameBye && !bytes.Equal(enc[5:], payload) {
			t.Fatalf("%T decode/encode is not canonical:\n in %x\nout %x", v, payload, enc[5:])
		}
	})
}
