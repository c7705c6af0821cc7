package constellation

import (
	"math"
	"testing"
)

// diffFixture returns a Diff with every slice populated.
func diffFixture() *Diff {
	return &Diff{DiffRecord: DiffRecord{
		T: 4, BaseT: 2,
		Added:        []LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 7}},
		Removed:      []LinkDelta{{A: 3, B: 4, OldQ: 9, NewQ: -1}},
		DelayChanged: []LinkDelta{{A: 5, B: 6, OldQ: 10, NewQ: 11}, {A: 6, B: 7, OldQ: 2, NewQ: 3}},
		Activated:    []int32{8},
		Deactivated:  []int32{9, 10},
		CarriedPaths: 3, RepairedPaths: 2, RepairFallbacks: 1,
	}}
}

func TestDiffRecordDeepCopies(t *testing.T) {
	d := diffFixture()
	rec := d.AppendRecord(DiffRecord{})

	if rec.T != 4 || rec.BaseT != 2 || rec.Full {
		t.Errorf("header = %+v", rec)
	}
	if len(rec.Added) != 1 || rec.Added[0] != (LinkDelta{A: 1, B: 2, OldQ: -1, NewQ: 7}) {
		t.Errorf("added = %+v", rec.Added)
	}
	if len(rec.DelayChanged) != 2 || rec.CarriedPaths != 3 || rec.RepairedPaths != 2 || rec.RepairFallbacks != 1 {
		t.Errorf("record = %+v", rec)
	}

	// Mutating the diff's slices — as snapshot recycling does — must not
	// leak into the record.
	d.Added[0].NewQ = 999
	d.DelayChanged[1].A = 999
	d.Deactivated[0] = 999
	if rec.Added[0].NewQ != 7 || rec.DelayChanged[1].A != 6 || rec.Deactivated[0] != 9 {
		t.Errorf("record shares memory with diff: %+v", rec)
	}
}

func TestDiffRecordCloneSharesNoMemory(t *testing.T) {
	rec := diffFixture().AppendRecord(DiffRecord{})
	clone := rec.Clone()
	// Refilling the original in place — as a retention-ring slot does via
	// AppendRecord — must not reach the clone.
	rec.Added[0] = LinkDelta{A: 99, B: 99, OldQ: 1, NewQ: 2}
	rec.DelayChanged[0].NewQ = 77
	rec.Deactivated[1] = 55
	if clone.Added[0].A != 1 || clone.DelayChanged[0].NewQ != 11 || clone.Deactivated[1] != 10 {
		t.Errorf("clone aliases the original: %+v", clone)
	}
	if clone.CarriedPaths != 3 || clone.T != 4 {
		t.Errorf("clone scalars = %+v", clone)
	}
}

func TestDiffRecordEmptyMatchesDiff(t *testing.T) {
	cases := []*Diff{
		{DiffRecord: DiffRecord{T: 1, BaseT: 0}},
		{DiffRecord: DiffRecord{T: 1, BaseT: math.NaN(), Full: true}},
		{DiffRecord: DiffRecord{T: 1, Activated: []int32{3}}},
		diffFixture(),
	}
	for i, d := range cases {
		rec := d.AppendRecord(DiffRecord{})
		if rec.Empty() != d.Empty() {
			t.Errorf("case %d: record.Empty() = %v, diff.Empty() = %v", i, rec.Empty(), d.Empty())
		}
	}
}

func TestAppendRecordReusesBackingArrays(t *testing.T) {
	d := diffFixture()
	rec := d.AppendRecord(DiffRecord{})
	added := rec.Added[:0]
	// Refilling a record from a same-shaped diff must reuse the slot's
	// backing arrays (the coordinator's ring relies on this to keep
	// steady-state ticks allocation-free).
	rec = d.AppendRecord(rec)
	if &added[0:1][0] != &rec.Added[0:1][0] {
		t.Error("AppendRecord reallocated an Added array that had capacity")
	}
	if len(rec.DelayChanged) != 2 || len(rec.Deactivated) != 2 || rec.Added[0].NewQ != 7 {
		t.Errorf("refilled record = %+v", rec)
	}
}
