package constellation

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

func wireTestRecord() DiffRecord {
	return DiffRecord{
		T: 42.5, BaseT: 40.5,
		Added:        []LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 7}},
		Removed:      []LinkDelta{{A: 3, B: 4, OldQ: 9, NewQ: -1}, {A: 5, B: 6, OldQ: 2, NewQ: -1}},
		DelayChanged: []LinkDelta{{A: 7, B: 8, OldQ: 3, NewQ: 4}},
		Activated:    []int32{10, 11},
		Deactivated:  []int32{12},
		CarriedPaths: 5, RepairedPaths: 2, RepairFallbacks: 1,
		Degraded: 2,
	}
}

func TestDiffWireRoundTrip(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 17, &rec)
	gen, got, err := DecodeRecordWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 17 {
		t.Errorf("generation = %d, want 17", gen)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("decoded record differs:\n got %+v\nwant %+v", got, rec)
	}
}

func TestDiffWireRoundTripFull(t *testing.T) {
	rec := DiffRecord{T: 0, BaseT: math.NaN(), Full: true}
	payload := AppendRecordWire(nil, 1, &rec)
	gen, got, err := DecodeRecordWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || !got.Full {
		t.Errorf("gen=%d full=%v, want 1/true", gen, got.Full)
	}
	if !math.IsNaN(got.BaseT) {
		t.Errorf("BaseT = %v, want NaN", got.BaseT)
	}
	if !got.Empty() == rec.Empty() {
		t.Errorf("emptiness changed across the wire")
	}
}

func TestDiffWireRoundTripEmpty(t *testing.T) {
	rec := DiffRecord{T: 2, BaseT: 1}
	payload := AppendRecordWire(nil, 3, &rec)
	_, got, err := DecodeRecordWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Errorf("empty record decoded non-empty: %+v", got)
	}
}

// TestDiffWireTruncation feeds every proper prefix of a valid payload to
// the decoder: all must fail cleanly, none may panic or over-read.
func TestDiffWireTruncation(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 9, &rec)
	for i := 0; i < len(payload); i++ {
		if _, _, err := DecodeRecordWire(payload[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(payload))
		}
	}
}

func TestDiffWireTrailingBytes(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 9, &rec)
	if _, _, err := DecodeRecordWire(append(payload, 0xEE)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
}

// TestDiffWireCorruptCount pins the allocation bound: a huge element count
// in a short payload must be rejected, not honored with a giant make().
func TestDiffWireCorruptCount(t *testing.T) {
	rec := DiffRecord{T: 1, BaseT: 0}
	payload := AppendRecordWire(nil, 4, &rec)
	// The added-count field sits right after the fixed header.
	const hdr = 8 + 8 + 8 + 1 + 1 + 4 + 4 + 4
	corrupt := append([]byte(nil), payload...)
	corrupt[hdr] = 0xFF
	corrupt[hdr+1] = 0xFF
	corrupt[hdr+2] = 0xFF
	corrupt[hdr+3] = 0x7F
	if _, _, err := DecodeRecordWire(corrupt); err == nil {
		t.Fatal("corrupt element count not rejected")
	}
}

func TestDiffWireAppendReusesBuffer(t *testing.T) {
	rec := wireTestRecord()
	buf := make([]byte, 0, 1024)
	out := AppendRecordWire(buf, 1, &rec)
	if &out[0] != &buf[:1][0] {
		t.Error("encoder reallocated despite sufficient capacity")
	}
}

// TestDiffWireBytesPinned holds the encoder to the bytes it wrote before
// it moved onto internal/wire: /v1/diff subscribers, read replicas and —
// since hostlink protocol 3 — host agents all parse this layout.
func TestDiffWireBytesPinned(t *testing.T) {
	rec := wireTestRecord()
	full := DiffRecord{T: 0, BaseT: math.NaN(), Full: true}
	for _, c := range []struct {
		gen  uint64
		rec  *DiffRecord
		want string
	}{
		{17, &rec, "1100000000000000" + "0000000000404540" + "0000000000404440" + "0002" + "050000000200000001000000" +
			"01000000" + "0100000002000000ffffffff07000000" +
			"02000000" + "030000000400000009000000ffffffff" + "050000000600000002000000ffffffff" +
			"01000000" + "07000000080000000300000004000000" +
			"02000000" + "0a0000000b000000" + "01000000" + "0c000000"},
		{1, &full, "0100000000000000" + "0000000000000000" + "010000000000f87f" + "0100" + "000000000000000000000000" +
			"00000000" + "00000000" + "00000000" + "00000000" + "00000000"},
	} {
		if got := hex.EncodeToString(AppendRecordWire(nil, c.gen, c.rec)); got != c.want {
			t.Errorf("generation %d encodes to\n%s, want\n%s", c.gen, got, c.want)
		}
	}
}

// FuzzDecodeRecordWire gives the record decoder — which parses bytes from
// an upstream /v1/diff stream and, inside a hostlink frame, from the agent
// socket — the contract FuzzDecodeFrame gives the frame decoder: arbitrary
// payloads never panic and never allocate past what the payload could hold,
// and a payload that decodes re-encodes to exactly its own bytes.
func FuzzDecodeRecordWire(f *testing.F) {
	rec := wireTestRecord()
	valid := AppendRecordWire(nil, 17, &rec)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(AppendRecordWire(nil, 1, &DiffRecord{BaseT: math.NaN(), Full: true}))
	f.Add(AppendRecordWire(nil, 3, &DiffRecord{T: 2, BaseT: 1}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		gen, rec, err := DecodeRecordWire(payload)
		if err != nil {
			return
		}
		// A link delta is 16 bytes on the wire and an ID 4: a decoded
		// record cannot hold more elements than the payload had bytes for.
		if n := len(rec.Added) + len(rec.Removed) + len(rec.DelayChanged); 16*n+4*(len(rec.Activated)+len(rec.Deactivated)) > len(payload) {
			t.Fatalf("%d-byte payload decoded to %d link deltas and %d IDs", len(payload), n, len(rec.Activated)+len(rec.Deactivated))
		}
		if enc := AppendRecordWire(nil, gen, &rec); !bytes.Equal(enc, payload) {
			t.Fatalf("decode/encode is not canonical:\n in %x\nout %x", payload, enc)
		}
	})
}
