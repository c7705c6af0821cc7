package hostlink

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"celestial/internal/constellation"
)

func roundtrip(t *testing.T, f any) any {
	t.Helper()
	var w bytes.Buffer
	if _, err := WriteFrame(&w, nil, f); err != nil {
		t.Fatalf("WriteFrame(%T): %v", f, err)
	}
	got, _, err := ReadFrame(&w, nil)
	if err != nil {
		t.Fatalf("ReadFrame(%T): %v", f, err)
	}
	return got
}

func TestWireRoundtrip(t *testing.T) {
	frames := []any{
		&Hello{Version: ProtocolVersion, Agent: 3, Cursor: 41, Digest: 0xdeadbeef, Flags: HelloApply, Token: "s3cret"},
		&Welcome{Version: ProtocolVersion, Agent: 3, Shards: 4, Generation: 42, Flags: HelloApply, Seed: -77},
		&Snapshot{
			Agent: 3, Generation: 7, Digest: 99, T: 14.5,
			Active:   []int32{1, 2, 5},
			Inactive: []int32{3},
			Links:    []LinkState{{A: 1, B: 2, DelayQ: 30}, {A: 2, B: 5, DelayQ: 12}},
		},
		&DiffFrame{
			Agent: 3, Generation: 8, Flags: FlagChanged | FlagActivity,
			DiffRecord: constellation.DiffRecord{
				T: 16.5, BaseT: 14.5, Degraded: 2,
				CarriedPaths: 4, RepairedPaths: 2, RepairFallbacks: 1,
				Added:        []constellation.LinkDelta{{A: 1, B: 3, OldQ: -1, NewQ: 9}},
				Removed:      []constellation.LinkDelta{{A: 1, B: 2, OldQ: 30, NewQ: -1}},
				DelayChanged: []constellation.LinkDelta{{A: 2, B: 5, OldQ: 12, NewQ: 13}},
				Activated:    []int32{3},
				Deactivated:  []int32{5},
			},
		},
		&Ack{Agent: 3, Generation: 8, Digest: 0xabc},
		&Heartbeat{Generation: 8},
		&Bye{Reason: "run complete"},
		&Propose{Agent: 3, Generation: 8, Flags: FlagInvalidate | FlagSweep},
		&Applied{Agent: 3, Generation: 8, Digest: 0xfeed, Attempts: 4, Retried: 2},
		&Commit{Agent: 3, Generation: 8, Digest: 0xfeed},
		&Reassign{Shard: 2, Epoch: 1, Generation: 8},
	}
	for _, f := range frames {
		got := roundtrip(t, f)
		// Decoders materialize empty slices as nil-or-empty; normalize
		// via a second roundtrip of the decoded value for comparison.
		if !reflect.DeepEqual(roundtrip(t, got), got) {
			t.Errorf("%T did not survive the wire: %+v", f, got)
		}
		switch want := f.(type) {
		case *DiffFrame:
			g := got.(*DiffFrame)
			if g.Generation != want.Generation || g.Flags != want.Flags ||
				!reflect.DeepEqual(g.Added, want.Added) || !reflect.DeepEqual(g.Deactivated, want.Deactivated) {
				t.Errorf("DiffFrame roundtrip = %+v, want %+v", g, want)
			}
		case *Snapshot:
			g := got.(*Snapshot)
			if g.Generation != want.Generation || g.Digest != want.Digest ||
				!reflect.DeepEqual(g.Links, want.Links) {
				t.Errorf("Snapshot roundtrip = %+v, want %+v", g, want)
			}
		}
	}
}

func TestWireRejectsTruncatedAndOversized(t *testing.T) {
	var w bytes.Buffer
	if _, err := WriteFrame(&w, nil, &Ack{Agent: 1, Generation: 5, Digest: 9}); err != nil {
		t.Fatal(err)
	}
	frame := w.Bytes()
	// Chop the payload but keep the prefix: the reader must fail cleanly.
	if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame error = %v, want unexpected EOF", err)
	}
	// A corrupt length prefix above the cap must be rejected before any
	// allocation.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(MaxFramePayload+2))
	hdr[4] = byte(FrameDiff)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame error = %v, want ErrFrameTooLarge", err)
	}
	// A corrupt element count inside a valid envelope must not allocate
	// past the payload.
	var w2 bytes.Buffer
	payload := binary.LittleEndian.AppendUint32(nil, 0)        // agent
	payload = append(payload, 0)                               // frame flags
	payload = binary.LittleEndian.AppendUint64(payload, 9)     // generation
	payload = append(payload, make([]byte, 16)...)             // T, BaseT
	payload = append(payload, 0, 0)                            // record flags, degraded
	payload = append(payload, make([]byte, 12)...)             // path-cache counters
	payload = binary.LittleEndian.AppendUint32(payload, 1<<30) // bogus count
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	w2.Write(hdr[:])
	w2.Write(payload)
	if _, _, err := ReadFrame(&w2, nil); err == nil {
		t.Error("bogus element count decoded without error")
	}
}

func TestFoldDiffIgnoresPolicyFlags(t *testing.T) {
	f := &DiffFrame{
		Generation: 3, Flags: FlagChanged,
		DiffRecord: constellation.DiffRecord{
			T:         6,
			Added:     []constellation.LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 5}},
			Activated: []int32{4},
		},
	}
	base := FoldDiff(ChainSeed, f)
	g := *f
	g.Flags |= FlagInvalidate | FlagSweep | FlagNote
	if FoldDiff(ChainSeed, &g) != base {
		t.Error("policy flags perturbed the digest chain")
	}
	// Content must perturb it.
	h := *f
	h.Added = []constellation.LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 6}}
	if FoldDiff(ChainSeed, &h) == base {
		t.Error("changed content did not perturb the digest chain")
	}
	// Field-group boundaries matter: the same link under a different
	// section must fold differently.
	i := *f
	i.Added, i.DelayChanged = nil, f.Added
	if FoldDiff(ChainSeed, &i) == base {
		t.Error("moving a link between sections did not perturb the chain")
	}
}
