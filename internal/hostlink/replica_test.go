package hostlink

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"celestial/internal/bbox"
	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/geom"
	"celestial/internal/orbit"
	"celestial/internal/supervise"
)

// replicaConfig is a small slice of Starlink Gen2: two of its shells
// (6,720 satellites) and 20 stations on a golden-angle spiral, behind a
// ±50° box so that satellites flip activity as they cross it.
func replicaConfig(t *testing.T) *config.Config {
	t.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkGen2(orbit.ModelKepler)[4:6] {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	const n = 20
	gsts := make([]config.GroundStation, n)
	for i := range gsts {
		gsts[i] = config.GroundStation{
			Name: fmt.Sprintf("gst%02d", i),
			Location: geom.LatLon{
				LatDeg: geom.Deg(math.Asin(2*(float64(i)+0.5)/n - 1)),
				LonDeg: math.Mod(float64(i)*137.50776405, 360) - 180,
			},
		}
	}
	cfg := &config.Config{
		Shells: shells, GroundStations: gsts,
		BoundingBox: bbox.Box{LatMinDeg: -50, LonMinDeg: -180, LatMaxDeg: 50, LonMaxDeg: 180},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// producerSnapshot is the shard's full state on st, the resync document a
// follower adopts: the shard's nodes with their activity and every link
// with an endpoint on the shard.
func producerSnapshot(st *constellation.State, gen, digest uint64, shard int, shardOf func(int) int) *Snapshot {
	snap := &Snapshot{Generation: gen, Digest: digest, T: st.T}
	for node, on := range st.Active {
		switch {
		case shardOf(node) != shard:
		case on:
			snap.Active = append(snap.Active, int32(node))
		default:
			snap.Inactive = append(snap.Inactive, int32(node))
		}
	}
	for l, q := range st.Links() {
		if shardOf(l.A) == shard || shardOf(l.B) == shard {
			snap.Links = append(snap.Links, LinkState{A: int32(l.A), B: int32(l.B), DelayQ: q})
		}
	}
	return snap
}

// overTheWire encodes f as a frame and decodes it again.
func overTheWire(t *testing.T, f any) any {
	t.Helper()
	var w bytes.Buffer
	if _, err := WriteFrame(&w, nil, f); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkReplica compares a replica's links, delay quanta and node activity
// with the producer state's, restricted to the shard, and its chain digest
// with the tier's mark of the generation.
func checkReplica(t *testing.T, r *Replica, fo *Fanout, st *constellation.State, gen uint64, shard int, where string) {
	t.Helper()
	shardOf := fo.cfg.ShardOf
	want := map[[2]int32]int32{}
	for l, q := range st.Links() {
		if shardOf(l.A) == shard || shardOf(l.B) == shard {
			want[linkKey(int32(l.A), int32(l.B))] = q
		}
	}
	fo.mu.Lock()
	mark, ok := fo.markAt(shard, gen)
	fo.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if head := r.history.Head(); head != gen || !ok || r.digest != mark.chain {
		t.Fatalf("%s: replica at generation %d digest %x, producer at %d digest %x", where, head, r.digest, gen, mark.chain)
	}
	missing, wrong := 0, 0
	for k, q := range want {
		if got, ok := r.links[k]; !ok {
			missing++
		} else if got != q {
			wrong++
		}
	}
	if extra := len(r.links) - (len(want) - missing); missing+wrong+extra > 0 {
		t.Fatalf("%s: replica holds %d links, producer %d: %d missing, %d extra, %d with another delay",
			where, len(r.links), len(want), missing, extra, wrong)
	}
	nodes := 0
	for node, on := range st.Active {
		if shardOf(node) != shard {
			continue
		}
		nodes++
		if got, ok := r.active[int32(node)]; !ok || got != on {
			t.Fatalf("%s: node %d active=%v on the producer, replica has %v (known %v)", where, node, on, got, ok)
		}
	}
	if len(r.active) != nodes {
		t.Fatalf("%s: replica tracks %d nodes, the shard has %d", where, len(r.active), nodes)
	}
}

// TestReplicaStateMatchesProducer feeds pool snapshots of a small Gen2
// slice through a Fanout into one Replica per shard, twice: in memory, each
// shard's view as Advance buckets it, and over the wire, each view filtered
// out of the log (buildFrameInto) and encoded and decoded as a frame. At
// every generation each replica's links, delays and node activity must
// equal the producer state's on its shard. The wire replicas go offline
// twice: once within the log's retention, and they replay what they
// missed, and once past it, and they resync from a snapshot of the
// producer's state and must match again. Nearly every Gen2 tick re-ships
// uplink sequences in both Removed and Added, so a replica that applies
// Removed last loses links at once.
func TestReplicaStateMatchesProducer(t *testing.T) {
	if testing.Short() {
		t.Skip("propagates 6,720 satellites for 20 ticks")
	}
	cons, err := constellation.New(replicaConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const shards, retention = 3, 4
	h := newHarness(t, shards, retention, nil)
	fo, shardOf := h.fo, h.fo.cfg.ShardOf
	pool := cons.NewSnapshotPool()
	mem, wire := make([]*Replica, shards), make([]*Replica, shards)
	for s := range shards {
		mem[s], wire[s] = NewReplica(), NewReplica()
	}
	// The wire replicas miss generations 5–6 (replayed from the log) and
	// 9–14 (evicted by then: a snapshot resync).
	offline := func(gen uint64) bool { return gen == 5 || gen == 6 || gen >= 9 && gen <= 14 }
	var prev *constellation.State
	reshipped, flips, resyncs := 0, 0, 0
	for gen := uint64(1); gen <= 20; gen++ {
		st, err := pool.Snapshot(float64(gen))
		if err != nil {
			t.Fatal(err)
		}
		pool.Recycle(prev)
		prev = st
		h.fs.advance(time.Unix(int64(gen), 0))
		fo.Advance(gen, st.Diff())
		if err := fo.Distribute(supervise.LevelFull); err != nil {
			t.Fatal(err)
		}
		d := st.Diff()
		if !d.Full {
			removed := map[[2]int32]bool{}
			for _, l := range d.Removed {
				removed[linkKey(int32(l.A), int32(l.B))] = true
			}
			for _, l := range d.Added {
				if removed[linkKey(int32(l.A), int32(l.B))] {
					reshipped++
				}
			}
			flips += len(d.Activated) + len(d.Deactivated)
		}
		for s := range shards {
			fo.mu.Lock()
			mark, _ := fo.markAt(s, gen)
			fo.mu.Unlock()
			if gen == 1 {
				snap := producerSnapshot(st, gen, mark.chain, s, shardOf)
				if err := mem[s].ApplySnapshot(snap); err != nil {
					t.Fatal(err)
				}
			} else {
				view := &fo.shards[s].scratch
				f := &DiffFrame{Generation: view.Generation, Flags: view.Flags, DiffRecord: view.DiffRecord.Clone()}
				if err := mem[s].ApplyDiff(f); err != nil {
					t.Fatal(err)
				}
			}
			checkReplica(t, mem[s], fo, st, gen, s, fmt.Sprintf("generation %d shard %d in memory", gen, s))

			if offline(gen) {
				continue
			}
			cursor, _ := wire[s].Cursor()
			recs, from := fo.DiffsFrom(cursor)
			if cursor == 0 || from != cursor {
				snap := producerSnapshot(st, gen, mark.chain, s, shardOf)
				if err := wire[s].ApplySnapshot(overTheWire(t, snap).(*Snapshot)); err != nil {
					t.Fatal(err)
				}
				if cursor > 0 {
					resyncs++
				}
			} else {
				for i := range recs {
					var view DiffFrame
					fo.buildFrameInto(&view, s, &recs[i])
					if err := wire[s].ApplyDiff(overTheWire(t, &view).(*DiffFrame)); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkReplica(t, wire[s], fo, st, gen, s, fmt.Sprintf("generation %d shard %d over the wire", gen, s))
		}
	}
	pool.Recycle(prev)
	t.Logf("%d links re-shipped, %d nodes flipped, %d wire replicas resynced", reshipped, flips, resyncs)
	if reshipped == 0 || flips == 0 || resyncs != shards {
		t.Fatalf("the run re-shipped %d links, flipped %d nodes and resynced %d wire replicas (want %d)",
			reshipped, flips, resyncs, shards)
	}
}
