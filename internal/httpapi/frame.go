package httpapi

import (
	"fmt"
	"io"

	"celestial/internal/constellation"
	"celestial/internal/hostlink"
	"celestial/internal/wire"
)

// DiffContentType is the media type a /diff client puts in its Accept
// header to negotiate the compact binary frame stream instead of JSON:
// internal/wire frames (u32 little-endian length | u8 frame type |
// payload), carrying one constellation.DiffRecord wire payload per
// generation. Read replicas follow this stream; its frames are encoded
// once per generation and the same buffer is written to every subscriber.
const DiffContentType = "application/x-celestial-diff"

// StreamFrameType discriminates the binary /diff stream frames.
type StreamFrameType uint8

const (
	// StreamFrameDiff carries one generation's DiffRecord wire payload.
	StreamFrameDiff StreamFrameType = 1 + iota
	// StreamFrameResync tells the subscriber its cursor fell off the
	// retention ring: refetch full state, then resume from the carried
	// generation/topology-version pair.
	StreamFrameResync
	// StreamFrameKeepalive keeps an idle stream warm through
	// intermediaries; it carries no payload.
	StreamFrameKeepalive
)

// Frame is one retained generation's diff, serialized once in every
// representation a subscriber can ask for: the decoded document (JSON
// long-poll responses embed it), the complete SSE event text, and the
// complete binary stream frame. All subscribers of a generation share
// these buffers — nothing is re-marshaled per subscriber — so they must
// be treated as immutable.
type Frame struct {
	Generation uint64
	Doc        DiffDoc
	SSE        []byte
	Bin        []byte
}

// BuildFrame serializes one generation's diff record into its shared
// frame. The record is deep-copied into the frame's document; callers may
// reuse rec afterwards.
func BuildFrame(gen uint64, rec *constellation.DiffRecord) *Frame {
	f := &Frame{Generation: gen, Doc: diffDoc(gen, rec)}
	data := marshalDoc(f.Doc)
	data = data[:len(data)-1] // SSE data lines carry no trailing newline
	f.SSE = []byte(fmt.Sprintf("event: diff\nid: %d\ndata: %s\n\n", gen, data))
	bin := wire.BeginFrame(nil, uint8(StreamFrameDiff))
	f.Bin = wire.EndFrame(constellation.AppendRecordWire(bin, gen, rec), 0)
	return f
}

// AppendResyncStreamFrame appends a resync frame: the head generation to
// resume from and the topology version at that head.
func AppendResyncStreamFrame(buf []byte, gen, topoVer uint64) []byte {
	start := len(buf)
	buf = wire.BeginFrame(buf, uint8(StreamFrameResync))
	buf = wire.AppendU64(buf, gen)
	return wire.EndFrame(wire.AppendU64(buf, topoVer), start)
}

// keepaliveStreamFrame is the static keepalive frame; it never changes, so
// one buffer serves every stream.
var keepaliveStreamFrame = wire.EndFrame(wire.BeginFrame(nil, uint8(StreamFrameKeepalive)), 0)

// StreamFrame is one decoded frame of the binary /diff stream. The
// embedded Record holds the frame's generation (diff and resync frames)
// and the decoded diff (diff frames only).
type StreamFrame struct {
	Type StreamFrameType
	// TopologyVersion is the head topology version (resync frames only).
	TopologyVersion uint64
	hostlink.Record
}

// ReadStreamFrame reads and decodes one frame from the binary /diff
// stream, reusing buf for the payload. It returns the decoded frame, the
// (possibly grown) buffer, and the first error encountered; the envelope's
// payload size cap guards against corrupt length prefixes.
func ReadStreamFrame(r io.Reader, buf []byte) (StreamFrame, []byte, error) {
	t, buf, err := wire.ReadFrame(r, buf)
	if err != nil {
		return StreamFrame{}, buf, err
	}
	f := StreamFrame{Type: StreamFrameType(t)}
	rd := wire.NewReader(buf)
	switch f.Type {
	case StreamFrameDiff:
		f.Generation, f.Diff = constellation.ReadRecordWire(rd)
	case StreamFrameResync:
		f.Generation, f.TopologyVersion = rd.U64(), rd.U64()
	case StreamFrameKeepalive:
	default:
		return StreamFrame{}, buf, fmt.Errorf("httpapi: unknown diff stream frame type %d", t)
	}
	if err := rd.Done(); err != nil {
		return StreamFrame{}, buf, err
	}
	return f, buf, nil
}
