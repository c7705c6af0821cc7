package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// TestWireFieldsRoundTrip writes one of every field kind and reads them
// back in order; the encoding is pinned byte for byte so a writer cannot
// drift from the formats already on disk and on the wire.
func TestWireFieldsRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 0xAB)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 0x0102030405060708)
	b = AppendI32(b, -2)
	b = AppendF64(b, -1.5)
	b = AppendStr(b, "héllo")
	b = AppendI32s(b, []int32{3, -1, math.MaxInt32})
	b = AppendI32s(b, nil)
	want := []byte{
		0xAB,
		0xEF, 0xBE, 0xAD, 0xDE,
		8, 7, 6, 5, 4, 3, 2, 1,
		0xFE, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 0, 0xF8, 0xBF,
		6, 0, 0, 0, 'h', 0xC3, 0xA9, 'l', 'l', 'o',
		3, 0, 0, 0, 3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,
		0, 0, 0, 0,
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("encoding drifted:\n got %x\nwant %x", b, want)
	}
	rd := NewReader(b)
	if v := rd.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := rd.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := rd.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 = %#x", v)
	}
	if v := rd.I32(); v != -2 {
		t.Errorf("I32 = %d", v)
	}
	if v := rd.F64(); v != -1.5 {
		t.Errorf("F64 = %v", v)
	}
	if v := rd.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := rd.I32s(); !reflect.DeepEqual(v, []int32{3, -1, math.MaxInt32}) {
		t.Errorf("I32s = %v", v)
	}
	if v := rd.I32s(); v != nil {
		t.Errorf("empty I32s = %v, want nil", v)
	}
	if err := rd.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// TestWireReaderErrors is the table of ways a payload can be wrong: every
// one must surface from Done, and a read after the error must return zero
// without moving.
func TestWireReaderErrors(t *testing.T) {
	objection := errors.New("bad value")
	cases := []struct {
		name    string
		payload []byte
		read    func(*Reader)
		want    error // nil: any error
	}{
		{"empty U8", nil, func(r *Reader) { r.U8() }, ErrShort},
		{"three bytes of a U32", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, ErrShort},
		{"seven bytes of an F64", make([]byte, 7), func(r *Reader) { r.F64() }, ErrShort},
		{"second field missing", AppendU32(nil, 7), func(r *Reader) { r.U32(); r.U64() }, ErrShort},
		{"string longer than payload", append(AppendU32(nil, 5), "abcd"...), func(r *Reader) { r.Str() }, ErrShort},
		{"count of 2^30", AppendU32(nil, 1<<30), func(r *Reader) { r.I32s() }, ErrShort},
		{"count one past the bytes left", append(AppendU32(nil, 3), make([]byte, 11)...), func(r *Reader) { r.Count(4) }, ErrShort},
		{"count of 2^32-1", AppendU32(nil, math.MaxUint32), func(r *Reader) { r.Count(16) }, ErrShort},
		{"trailing byte", append(AppendU32(nil, 7), 0), func(r *Reader) { r.U32() }, nil},
		{"decoder's objection", AppendU32(nil, 7), func(r *Reader) { r.U32(); r.Fail(objection) }, objection},
		{"objection does not mask truncation", nil, func(r *Reader) { r.U8(); r.Fail(objection) }, ErrShort},
		{"truncation does not mask objection", nil, func(r *Reader) { r.Fail(objection); r.U8() }, objection},
	}
	for _, c := range cases {
		rd := NewReader(c.payload)
		c.read(rd)
		err := rd.Done()
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: Done = %v, want %v", c.name, err, c.want)
		}
		if c.name == "trailing byte" {
			continue // not sticky: nothing was misread
		}
		off := rd.off
		if rd.U8() != 0 || rd.U64() != 0 || rd.Str() != "" || rd.I32s() != nil || rd.Count(1) != 0 || rd.off != off {
			t.Errorf("%s: reads after the error returned data or moved", c.name)
		}
	}
}

// TestWireCountAdmitsExactly pins the bound from both sides: as many
// elements as the payload holds are admitted, one more is not.
func TestWireCountAdmitsExactly(t *testing.T) {
	for _, elem := range []int{1, 4, 12, 16} {
		for _, n := range []int{0, 1, 5} {
			payload := append(AppendU32(nil, uint32(n)), make([]byte, n*elem)...)
			if got := NewReader(payload).Count(elem); got != n {
				t.Errorf("Count(%d) over %d elements = %d", elem, n, got)
			}
			rd := NewReader(payload[:len(payload)-min(1, n*elem)])
			if got := rd.Count(elem); n > 0 && (got != 0 || rd.Done() == nil) {
				t.Errorf("Count(%d) admitted %d elements with one byte missing", elem, got)
			}
		}
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	// Two frames back to back in one buffer: EndFrame patches the frame it
	// is pointed at, not the buffer's first.
	buf := EndFrame(append(BeginFrame(nil, 7), "abc"...), 0)
	start := len(buf)
	buf = EndFrame(BeginFrame(buf, 9), start)
	if want := []byte{4, 0, 0, 0, 7, 'a', 'b', 'c', 1, 0, 0, 0, 9}; !bytes.Equal(buf, want) {
		t.Fatalf("frames = %x, want %x", buf, want)
	}
	r := bytes.NewReader(buf)
	typ, payload, err := ReadFrame(r, nil)
	if err != nil || typ != 7 || string(payload) != "abc" {
		t.Fatalf("first frame = %d %q %v", typ, payload, err)
	}
	scratch := payload
	typ, payload, err = ReadFrame(r, scratch)
	if err != nil || typ != 9 || len(payload) != 0 {
		t.Fatalf("second frame = %d %q %v", typ, payload, err)
	}
	if cap(payload) != cap(scratch) {
		t.Error("ReadFrame did not reuse a buffer that was large enough")
	}
	if _, _, err := ReadFrame(r, payload); err != io.EOF {
		t.Errorf("read past the last frame = %v, want EOF", err)
	}
}

func TestWireReadFrameRejects(t *testing.T) {
	frame := EndFrame(append(BeginFrame(nil, 1), "payload"...), 0)
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"cut inside the header", frame[:3], io.ErrUnexpectedEOF},
		{"cut inside the payload", frame[:len(frame)-2], io.ErrUnexpectedEOF},
		{"zero length (no type byte)", []byte{0, 0, 0, 0, 1}, ErrShort},
		{"one past the cap", append(AppendU32(nil, MaxFramePayload+2), 1), ErrFrameTooLarge},
		{"2^32-1", append(AppendU32(nil, math.MaxUint32), 1), ErrFrameTooLarge},
	}
	for _, c := range cases {
		_, buf, err := ReadFrame(bytes.NewReader(c.in), nil)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if cap(buf) > len(frame) {
			t.Errorf("%s: allocated %d bytes for a refused frame", c.name, cap(buf))
		}
	}
	// At the cap exactly the prefix is honoured (and the body then missed).
	if _, _, err := ReadFrame(bytes.NewReader(append(AppendU32(nil, MaxFramePayload+1), 1)), nil); !errors.Is(err, io.EOF) {
		t.Errorf("frame at the cap: err = %v, want EOF reading its payload", err)
	}
}

// FuzzReader drives a Reader with a fuzzer-chosen sequence of reads over a
// fuzzer-chosen payload. Whatever the sequence: no panic, the offset never
// passes the payload, Count never admits more elements than bytes remain,
// no list is longer than the bytes that were left for it, and once an error
// is set nothing moves.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, append(AppendU32(nil, 2), make([]byte, 40)...))
	f.Add([]byte{6, 6, 6}, AppendI32s(AppendStr(nil, "abc"), []int32{1, 2}))
	f.Add([]byte{5, 4}, AppendU32(nil, math.MaxUint32))
	f.Fuzz(func(t *testing.T, ops, payload []byte) {
		rd := NewReader(payload)
		for _, op := range ops {
			left, failed := len(payload)-rd.off, rd.err != nil
			off := rd.off
			switch op % 8 {
			case 0:
				rd.U8()
			case 1:
				rd.U32()
			case 2:
				rd.U64()
			case 3:
				rd.I32()
			case 4:
				rd.F64()
			case 5:
				elem := 1 + int(op/8)%16
				if n := rd.Count(elem); n*elem > left {
					t.Fatalf("Count(%d) admitted %d elements with %d bytes left", elem, n, left)
				}
			case 6:
				if s := rd.Str(); len(s) > left {
					t.Fatalf("Str returned %d bytes with %d left", len(s), left)
				}
			case 7:
				if vs := rd.I32s(); 4*len(vs) > left {
					t.Fatalf("I32s returned %d elements with %d bytes left", len(vs), left)
				}
			}
			if rd.off > len(payload) {
				t.Fatalf("offset %d past a %d-byte payload", rd.off, len(payload))
			}
			if failed && rd.off != off {
				t.Fatal("a read after an error moved the reader")
			}
		}
	})
}

// FuzzAppendRead is the writers against the reader: any values appended
// come back equal, and the payload is consumed exactly.
func FuzzAppendRead(f *testing.F) {
	f.Add(uint8(1), uint32(2), uint64(3), int32(-4), 5.5, "six", []byte{7, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint8(0), uint32(0), uint64(0), int32(0), math.NaN(), "", []byte{})
	f.Fuzz(func(t *testing.T, a uint8, b uint32, c uint64, d int32, e float64, s string, raw []byte) {
		ids := make([]int32, len(raw)/4)
		for i := range ids {
			ids[i] = NewReader(raw[4*i:]).I32()
		}
		buf := append([]byte(nil), a)
		buf = AppendU32(buf, b)
		buf = AppendU64(buf, c)
		buf = AppendI32(buf, d)
		buf = AppendF64(buf, e)
		buf = AppendStr(buf, s)
		buf = AppendI32s(buf, ids)
		rd := NewReader(buf)
		if rd.U8() != a || rd.U32() != b || rd.U64() != c || rd.I32() != d {
			t.Fatal("integer fields did not round-trip")
		}
		if got := rd.F64(); math.Float64bits(got) != math.Float64bits(e) {
			t.Fatalf("F64 = %v, want %v", got, e)
		}
		if got := rd.Str(); got != s {
			t.Fatalf("Str = %q, want %q", got, s)
		}
		if got := rd.I32s(); len(got) != len(ids) || (len(ids) > 0 && !reflect.DeepEqual(got, ids)) {
			t.Fatalf("I32s = %v, want %v", got, ids)
		}
		if err := rd.Done(); err != nil {
			t.Fatal(err)
		}
	})
}
