package httpapi

import (
	"bytes"
	"math"
	"testing"

	"celestial/internal/constellation"
	"celestial/internal/wire"
)

// FuzzReadStreamFrame gives the binary /v1/diff stream reader — a read
// replica parses whatever its upstream sends — the contract
// hostlink.FuzzDecodeFrame gives the agent socket: arbitrary bytes never
// panic, a refused frame never costs more memory than the bytes that
// arrived, and a frame that decodes re-encodes to exactly the bytes it was
// read from.
func FuzzReadStreamFrame(f *testing.F) {
	rec := constellation.DiffRecord{
		T: 42.5, BaseT: 40.5, Degraded: 1, CarriedPaths: 5, RepairedPaths: 2, RepairFallbacks: 1,
		Added:        []constellation.LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 7}},
		Removed:      []constellation.LinkDelta{{A: 3, B: 4, OldQ: 9, NewQ: -1}},
		DelayChanged: []constellation.LinkDelta{{A: 7, B: 8, OldQ: 3, NewQ: 4}},
		Activated:    []int32{10},
		Deactivated:  []int32{12},
	}
	diff := BuildFrame(17, &rec).Bin
	f.Add(diff)
	f.Add(diff[:len(diff)-1])
	f.Add(BuildFrame(1, &constellation.DiffRecord{BaseT: math.NaN(), Full: true}).Bin)
	f.Add(AppendResyncStreamFrame(nil, 9, 7))
	f.Add(keepaliveStreamFrame)
	f.Add(append(append([]byte(nil), keepaliveStreamFrame...), diff...)) // two frames: only the first is read
	f.Fuzz(func(t *testing.T, stream []byte) {
		// A prefix that promises more than arrived makes the envelope
		// reader allocate the promised payload (under its cap) before the
		// short read fails — by design, and covered by TestWireReadFrameRejects;
		// at fuzzing rates it would only measure the allocator.
		if len(stream) >= 4 {
			if n := wire.NewReader(stream).U32(); int64(n) > int64(len(stream)) && n-1 <= wire.MaxFramePayload {
				return
			}
		}
		r := bytes.NewReader(stream)
		frame, buf, err := ReadStreamFrame(r, nil)
		if cap(buf) > len(stream) {
			t.Fatalf("a %d-byte stream cost a %d-byte buffer", len(stream), cap(buf))
		}
		if err != nil {
			return
		}
		var enc []byte
		switch frame.Type {
		case StreamFrameDiff:
			if n := len(frame.Diff.Added) + len(frame.Diff.Removed) + len(frame.Diff.DelayChanged); 16*n > len(stream) {
				t.Fatalf("%d-byte stream decoded to %d link deltas", len(stream), n)
			}
			enc = BuildFrame(frame.Generation, &frame.Diff).Bin
		case StreamFrameResync:
			enc = AppendResyncStreamFrame(nil, frame.Generation, frame.TopologyVersion)
		case StreamFrameKeepalive:
			enc = keepaliveStreamFrame
		default:
			t.Fatalf("decoded a frame of unknown type %d", frame.Type)
		}
		if read := stream[:len(stream)-r.Len()]; !bytes.Equal(enc, read) {
			t.Fatalf("decode/encode is not canonical:\n in %x\nout %x", read, enc)
		}
	})
}
