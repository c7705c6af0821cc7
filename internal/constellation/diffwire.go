package constellation

import (
	"fmt"

	"celestial/internal/wire"
)

// This file is the binary wire form of one generation's DiffRecord — the
// only binary form a diff has. The information service's /diff endpoint
// streams it to subscribers that negotiate the compact encoding instead of
// JSON (read replicas, and any client that follows many generations), and
// the hostlink tier ships each host agent the same layout holding its
// shard's view of the record. Fields go through internal/wire: fixed
// little-endian, u32 element counts bounded against the remaining payload.
//
//	u64 generation
//	f64 t | f64 baseT (NaN when full)
//	u8  flags (bit0: full) | u8 degraded
//	u32 carriedPaths | u32 repairedPaths | u32 repairFallbacks
//	u32 n + n × (i32 a, i32 b, i32 oldQ, i32 newQ)   added
//	u32 n + n × (i32 a, i32 b, i32 oldQ, i32 newQ)   removed
//	u32 n + n × (i32 a, i32 b, i32 oldQ, i32 newQ)   delayChanged
//	u32 n + n × i32                                   activated
//	u32 n + n × i32                                   deactivated
//
// Delays stay in netem delay-quantum units on the wire; consumers derive
// millisecond floats the same way the JSON encoder does, so a re-encoded
// JSON document is byte-identical to the coordinator's.

// diffWireFull is the flags bit marking a record with no usable base.
const diffWireFull uint8 = 1 << 0

// AppendRecordWire appends the binary wire encoding of record r at
// generation gen to buf and returns the extended slice.
func AppendRecordWire(buf []byte, gen uint64, r *DiffRecord) []byte {
	buf = wire.AppendU64(buf, gen)
	buf = wire.AppendF64(buf, r.T)
	buf = wire.AppendF64(buf, r.BaseT)
	var flags uint8
	if r.Full {
		flags |= diffWireFull
	}
	buf = append(buf, flags, r.Degraded)
	buf = wire.AppendU32(buf, uint32(r.CarriedPaths))
	buf = wire.AppendU32(buf, uint32(r.RepairedPaths))
	buf = wire.AppendU32(buf, uint32(r.RepairFallbacks))
	buf = appendWireDeltas(buf, r.Added)
	buf = appendWireDeltas(buf, r.Removed)
	buf = appendWireDeltas(buf, r.DelayChanged)
	buf = wire.AppendI32s(buf, r.Activated)
	return wire.AppendI32s(buf, r.Deactivated)
}

func appendWireDeltas(buf []byte, ds []LinkDelta) []byte {
	buf = wire.AppendU32(buf, uint32(len(ds)))
	for _, d := range ds {
		buf = wire.AppendI32(buf, int32(d.A))
		buf = wire.AppendI32(buf, int32(d.B))
		buf = wire.AppendI32(buf, d.OldQ)
		buf = wire.AppendI32(buf, d.NewQ)
	}
	return buf
}

func readWireDeltas(rd *wire.Reader) []LinkDelta {
	n := rd.Count(16)
	if n == 0 {
		return nil
	}
	ds := make([]LinkDelta, n)
	for i := range ds {
		ds[i] = LinkDelta{A: int(rd.I32()), B: int(rd.I32()), OldQ: rd.I32(), NewQ: rd.I32()}
	}
	return ds
}

// ReadRecordWire reads one record, as AppendRecordWire wrote it, from the
// reader's position — for formats that carry a record inside a larger
// payload. Errors stay on the reader (check rd.Done). A flags bit this
// revision does not define is an error, not ignored: decoding and
// re-encoding a payload must give back its bytes.
func ReadRecordWire(rd *wire.Reader) (uint64, DiffRecord) {
	gen := rd.U64()
	var rec DiffRecord
	rec.T = rd.F64()
	rec.BaseT = rd.F64()
	flags := rd.U8()
	rec.Full = flags&diffWireFull != 0
	rec.Degraded = rd.U8()
	rec.CarriedPaths = int(rd.U32())
	rec.RepairedPaths = int(rd.U32())
	rec.RepairFallbacks = int(rd.U32())
	rec.Added = readWireDeltas(rd)
	rec.Removed = readWireDeltas(rd)
	rec.DelayChanged = readWireDeltas(rd)
	rec.Activated = rd.I32s()
	rec.Deactivated = rd.I32s()
	if flags&^diffWireFull != 0 {
		rd.Fail(fmt.Errorf("constellation: unknown diff record flags %#02x", flags))
	}
	return gen, rec
}

// DecodeRecordWire decodes a payload produced by AppendRecordWire. The
// returned record shares no memory with the payload. The payload must
// contain exactly one record: trailing bytes are an error.
func DecodeRecordWire(payload []byte) (uint64, DiffRecord, error) {
	rd := wire.NewReader(payload)
	gen, rec := ReadRecordWire(rd)
	if err := rd.Done(); err != nil {
		return 0, DiffRecord{}, err
	}
	return gen, rec, nil
}
