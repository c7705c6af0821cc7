package hostlink

import (
	"math"
	"slices"
	"testing"

	"celestial/internal/constellation"
	"celestial/internal/rng"
)

// randomRecord fabricates one generation's diff over nodes nodes: links
// between random endpoints (so both same-shard and cross-shard ones),
// activity flips, and now and then an empty, Full or Degraded diff.
func randomRecord(rnd *rng.Stream, nodes int) *constellation.Diff {
	d := &constellation.Diff{}
	d.T = float64(rnd.Intn(1000))
	d.BaseT = d.T - 1
	switch rnd.Intn(6) {
	case 0: // empty
		return d
	case 1:
		d.Full, d.BaseT = true, math.NaN()
	case 2:
		d.Degraded = uint8(1 + rnd.Intn(3))
	}
	links := func() []constellation.LinkDelta {
		var out []constellation.LinkDelta
		for i, n := 0, rnd.Intn(12); i < n; i++ {
			out = append(out, constellation.LinkDelta{
				A: rnd.Intn(nodes), B: rnd.Intn(nodes),
				OldQ: int32(rnd.Intn(50)) - 1, NewQ: int32(rnd.Intn(50)) - 1,
			})
		}
		return out
	}
	ids := func() []int32 {
		var out []int32
		for i, n := 0, rnd.Intn(6); i < n; i++ {
			out = append(out, int32(rnd.Intn(nodes)))
		}
		return out
	}
	d.Added, d.Removed, d.DelayChanged = links(), links(), links()
	d.Activated, d.Deactivated = ids(), ids()
	return d
}

func sameView(a, b *DiffFrame) bool {
	return a.Generation == b.Generation && a.Flags == b.Flags &&
		(a.T == b.T || math.IsNaN(a.T) && math.IsNaN(b.T)) &&
		(a.BaseT == b.BaseT || math.IsNaN(a.BaseT) && math.IsNaN(b.BaseT)) &&
		a.Full == b.Full && a.Degraded == b.Degraded &&
		slices.Equal(a.Added, b.Added) && slices.Equal(a.Removed, b.Removed) &&
		slices.Equal(a.DelayChanged, b.DelayChanged) &&
		slices.Equal(a.Activated, b.Activated) && slices.Equal(a.Deactivated, b.Deactivated)
}

// FuzzShardViews ties Advance's one-pass bucketing to buildFrameInto, the
// one-shard filter remote writers replay the log with: over random shard
// layouts and random records, every shard's view, flags and digest chain
// must come out the same both ways, generation after generation (the views
// reuse their slices).
func FuzzShardViews(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(uint8(seed-1), seed, uint8(12))
	}
	f.Fuzz(func(t *testing.T, width uint8, seed int64, gens uint8) {
		shards := 1 + int(width%8)
		rnd := rng.New(seed)
		nodes := 1 + rnd.Intn(40)
		owner := make([]int, nodes)
		for i := range owner {
			owner[i] = rnd.Intn(shards)
		}
		h := newHarness(t, shards, 4, func(c *Config) {
			c.ShardOf = func(node int) int { return owner[node] }
		})
		ref := make([]DiffFrame, shards)
		chains := make([]uint64, shards)
		for i := range chains {
			chains[i] = ChainSeed
		}
		for gen := uint64(1); gen <= uint64(gens%32)+1; gen++ {
			h.fo.Advance(gen, randomRecord(rnd, nodes))
			g, _ := h.fo.log.At(gen)
			for i, s := range h.fo.shards {
				h.fo.buildFrameInto(&ref[i], i, &g.Record)
				chains[i] = FoldDiff(chains[i], &ref[i])
				if !sameView(&s.scratch, &ref[i]) {
					t.Fatalf("gen %d shard %d of %d: bucketed view\n%+v\nfiltered view\n%+v", gen, i, shards, s.scratch, ref[i])
				}
				if s.chain != chains[i] || g.marks[i].chain != chains[i] {
					t.Fatalf("gen %d shard %d: chain %#x (mark %#x), filtered %#x", gen, i, s.chain, g.marks[i].chain, chains[i])
				}
			}
		}
	})
}

// TestAdvanceAsksShardOfOncePerEndpoint pins the cost shape of the bucket
// pass: whatever the shard count, Advance looks up each link endpoint and
// each activity flip's owner once.
func TestAdvanceAsksShardOfOncePerEndpoint(t *testing.T) {
	const nodes = 64
	for shards := 1; shards <= 8; shards++ {
		calls := 0
		h := newHarness(t, shards, 4, func(c *Config) {
			c.ShardOf = func(node int) int { calls++; return node % shards }
		})
		rnd := rng.New(int64(shards))
		for gen := uint64(1); gen <= 20; gen++ {
			d := randomRecord(rnd, nodes)
			calls = 0
			h.fo.Advance(gen, d)
			bound := 2*(len(d.Added)+len(d.Removed)+len(d.DelayChanged)) + len(d.Activated) + len(d.Deactivated)
			if calls > bound {
				t.Fatalf("%d shards, gen %d: %d ShardOf calls, want at most %d", shards, gen, calls, bound)
			}
		}
	}
}

// TestFold32MatchesFold64 holds the short fold to the widened long one the
// digest chain was defined with.
func TestFold32MatchesFold64(t *testing.T) {
	hs := []uint64{0, 1, ChainSeed, math.MaxUint64, fnvPrime}
	vs := []uint32{0, 1, 0xff, 0x100, 0xffff, 0x10000, 0xffffff, 0x1000000, math.MaxInt32, 0x80000000, math.MaxUint32}
	for _, h := range hs {
		for _, v := range vs {
			if got, want := fold32(h, v), fold64(h, uint64(v)); got != want {
				t.Fatalf("fold32(%#x, %#x) = %#x, fold64 %#x", h, v, got, want)
			}
		}
	}
	rnd := rng.New(7)
	for i := 0; i < 10000; i++ {
		h, v := rnd.Uint64(), uint32(rnd.Uint64())
		if got, want := fold32(h, v), fold64(h, uint64(v)); got != want {
			t.Fatalf("fold32(%#x, %#x) = %#x, fold64 %#x", h, v, got, want)
		}
	}
}
