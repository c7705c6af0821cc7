// Package wire is the one byte codec under every binary format in the
// tree: the hostlink frame stream between coordinator and host agents, the
// diff record the information service streams to read replicas, and the
// envelope both travel in. Fields are fixed-width little-endian; a list is
// a u32 element count followed by its elements; a frame is
//
//	uint32 length (type byte + payload) | uint8 frame type | payload
//
// with one cap on the payload size. The package knows no frame type and no
// record layout — those belong to the packages that own the formats.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxFramePayload caps a frame payload; a length prefix above it is
// treated as stream corruption rather than honored with a huge allocation.
// A full Starlink Gen2 snapshot (~84k links) is ~1 MiB, far under the cap.
const MaxFramePayload = 64 << 20

var (
	// ErrShort reports a payload that ended before its fields did.
	ErrShort = errors.New("wire: truncated payload")
	// ErrFrameTooLarge reports a frame whose payload is above
	// MaxFramePayload.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size cap")
)

// AppendU32 .. AppendI32s are the field writers.
func AppendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func AppendI32(b []byte, v int32) []byte   { return AppendU32(b, uint32(v)) }
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr writes a u32-length-prefixed string.
func AppendStr(b []byte, s string) []byte {
	return append(AppendU32(b, uint32(len(s))), s...)
}

// AppendI32s writes a u32-counted list of i32.
func AppendI32s(b []byte, vs []int32) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendI32(b, v)
	}
	return b
}

// Reader walks a payload with a sticky truncation error, so a decoder
// reads every field and checks once, with Done. After an error every read
// returns zero and consumes nothing.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader at the start of payload.
func NewReader(payload []byte) *Reader { return &Reader{b: payload} }

// take returns the next n bytes, or nil once the payload is exhausted.
func (r *Reader) take(n int) []byte {
	if r.err == nil && n > len(r.b)-r.off {
		r.err = ErrShort
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *Reader) U8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *Reader) I32() int32   { return int32(r.U32()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and bounds it against the bytes left,
// so a corrupt count cannot force a huge allocation: it never admits more
// elements of elemBytes each than the payload still holds.
func (r *Reader) Count(elemBytes int) int {
	n := int(r.U32())
	if r.err == nil && n > (len(r.b)-r.off)/elemBytes {
		r.err = ErrShort
		return 0
	}
	return n
}

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string {
	return string(r.take(r.Count(1)))
}

// I32s reads a u32-counted list of i32; an empty list is nil.
func (r *Reader) I32s() []int32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = r.I32()
	}
	return vs
}

// Fail records a decoder's own objection to a value it read — the reader
// checks lengths, not meanings. The first error sticks.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports the first error met, or the bytes left over: a payload
// holds exactly the fields of its format.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// BeginFrame appends a frame's envelope to buf: the length prefix, patched
// by EndFrame once the payload has been appended behind it, and the type
// byte.
func BeginFrame(buf []byte, frameType uint8) []byte {
	return append(buf, 0, 0, 0, 0, frameType)
}

// EndFrame closes the frame begun at offset start of buf by patching its
// length prefix. A sender that can build a payload above MaxFramePayload
// checks before writing: the peer's ReadFrame refuses the frame.
func EndFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4)) // type byte + payload
	return buf
}

// ReadFrame reads one frame from r. The payload is read into buf, grown
// when too small, and returned as the slice of it the payload fills — valid
// until the caller hands the buffer to the next ReadFrame.
func ReadFrame(r io.Reader, buf []byte) (frameType uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 {
		return 0, buf, ErrShort
	}
	if n-1 > MaxFramePayload {
		return 0, buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n-1) {
		buf = make([]byte, n-1)
	}
	buf = buf[:n-1]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, buf, err
	}
	return hdr[4], buf, nil
}
