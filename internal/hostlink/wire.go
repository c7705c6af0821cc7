// Package hostlink is the coordinator↔host-agent fan-out tier: the piece
// of the paper's architecture (Fig. 2) that carries each tick's
// constellation diff and activity overlay from the one coordinator to the
// N emulation hosts. It has two planes:
//
//   - the virtual plane (fanout.go), where every shard's generations are
//     applied in-process on the simulation goroutine under seeded fault
//     injection (frame drop/dup/delay, scripted agent kill/rejoin,
//     dead-agent detection in virtual time) — fully deterministic and
//     reflected in the run report. It reads marks: per generation and
//     shard, the generation number, two content bits and Full, which is
//     all the degradation policy and a loopback applier consume. It never
//     holds, copies or replays a diff's content;
//
//   - the wall-clock plane (remote.go), where standalone agent processes
//     (cmd/celestial-agent) follow the generations over TCP as
//     digest-verified replicas. It reads content: the producer's retained
//     records and shard snapshots, filtered and encoded per connection.
//     Acks, heartbeats, reconnect resyncs and barriers never touch
//     simulation state, so a distributed run's report stays byte-identical
//     to the single-process run's.
//
// What the planes share is the marks log — one difflog appended by
// Fanout.Advance with the producer's retention, holding each generation's
// offers, chain digests and apply results — and through it difflog's one
// cursor table: a loopback shard and a remote agent at the same cursor get
// the same replay-or-snapshot answer. The apply engine is one too, with one
// input: a header-only DiffFrame, built by Fanout.applyFrame on this side
// of the wire and by Agent.applyPropose on the other.
//
// This file is the wire protocol: internal/wire frames over a byte stream,
// versioned via the Hello/Welcome handshake. Payloads are fixed-layout
// little-endian fields — no reflection, no allocation beyond the payload
// buffer, and a hard size cap against corrupt prefixes.
package hostlink

import (
	"fmt"
	"io"
	"math"

	"celestial/internal/constellation"
	"celestial/internal/wire"
)

// ProtocolVersion is the wire protocol revision, carried in the handshake
// only. Agents and coordinators must match exactly: a peer of another
// revision is refused at the handshake (Bye with the VersionError text one
// way, a *VersionError from Agent.Run the other). Version 2 added the
// commit protocol (Propose/Applied/Commit), shard routing on data frames
// (Reassign), and handshake auth; version 3 made the FrameDiff payload the
// shard's view of the one diff record (constellation.AppendRecordWire)
// instead of a second link format.
const ProtocolVersion = 3

// VersionError reports a protocol version skew between the two ends of a
// handshake, naming both versions.
type VersionError struct {
	Got, Want uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("hostlink: protocol version %d, want %d", e.Got, e.Want)
}

// MaxFramePayload and ErrFrameTooLarge are the envelope's payload cap and
// the error for a frame above it, under the names this package's callers
// know them by.
const MaxFramePayload = wire.MaxFramePayload

var ErrFrameTooLarge = wire.ErrFrameTooLarge

// FrameType discriminates the frame payloads.
type FrameType uint8

const (
	// FrameHello is the agent's opening frame: protocol version, shard
	// identity, and the replica cursor (generation + chain digest) it
	// wants to resume from.
	FrameHello FrameType = 1 + iota
	// FrameWelcome is the coordinator's handshake reply.
	FrameWelcome
	// FrameSnapshot is a full shard state: the resync path when the
	// retention ring has evicted the agent's cursor (or its digest chain
	// diverged).
	FrameSnapshot
	// FrameDiff is one generation's shard-scoped delta.
	FrameDiff
	// FrameAck reports the agent's applied cursor and chain digest.
	FrameAck
	// FrameHeartbeat keeps an idle connection warm in both directions.
	FrameHeartbeat
	// FrameBye is a clean shutdown notice.
	FrameBye
	// FramePropose asks an agent that negotiated authoritative apply to
	// run one generation's policy actions through its apply engine.
	FramePropose
	// FrameApplied is the agent's engine result for one proposal: the
	// deterministic result digest plus the engine's retry counters.
	FrameApplied
	// FrameCommit closes one proposal: the coordinator verified the
	// result digest and folded the generation into the commit chain.
	FrameCommit
	// FrameReassign transfers ownership of a shard to the receiving
	// agent (rebalancing after agent death); a Snapshot for that shard
	// follows.
	FrameReassign
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameSnapshot:
		return "snapshot"
	case FrameDiff:
		return "diff"
	case FrameAck:
		return "ack"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameBye:
		return "bye"
	case FramePropose:
		return "propose"
	case FrameApplied:
		return "applied"
	case FrameCommit:
		return "commit"
	case FrameReassign:
		return "reassign"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// DiffFrame flag bits. Content flags describe what the producing tick
// changed; policy flags carry the virtual plane's per-shard degradation
// decisions to an apply engine — on the header-only frame a loopback
// applier is handed, and in a Propose — and are never set on a FrameDiff
// built for the wire.
const (
	// Bit 0 is unassigned: a diff with no usable base is marked once, by
	// the embedded record's Full.
	_ uint8 = 1 << iota
	// FlagChanged is set when the producing tick's diff was non-empty
	// anywhere in the constellation — the signal that cached paths (and
	// therefore shaper programs) may be stale for every shard.
	FlagChanged
	// FlagActivity is set when this shard owns at least one node whose
	// activity flipped this generation.
	FlagActivity
	// FlagInvalidate (policy) tells the loopback applier to mark the
	// shard's cached paths stale.
	FlagInvalidate
	// FlagSweep (policy) tells the loopback applier to run the shard's
	// machine-activity sweep, including any debt carried from coalesced
	// frames.
	FlagSweep
	// FlagNote (policy) tells the loopback applier to record a host
	// update spike without sweeping (a links-only generation).
	FlagNote
)

// HelloApply is the Hello capability bit an agent sets to negotiate
// authoritative remote apply: the coordinator then sends Propose frames
// and expects Applied results through the commit protocol.
const HelloApply uint8 = 1

// Hello opens an agent connection.
type Hello struct {
	Version uint8
	Agent   int32
	// Cursor and Digest are the replica's applied generation and chain
	// digest; the coordinator replays from there when the retention ring
	// still covers it and the digest matches, else it sends a Snapshot.
	Cursor uint64
	Digest uint64
	// Flags carries capability bits (HelloApply); Token is the bearer
	// token when the coordinator's listener requires one.
	Flags uint8
	Token string
}

// Welcome acknowledges a Hello.
type Welcome struct {
	Version uint8
	Agent   int32
	// Shards is the fan-out width, so an agent can detect a shard layout
	// mismatch; Generation is the coordinator's head at handshake time.
	Shards     int32
	Generation uint64
	// Flags echoes the accepted capability bits; Seed is the fan-out
	// tier's scenario seed, from which both ends derive identical
	// per-shard apply-engine streams.
	Flags uint8
	Seed  int64
}

// LinkState is one link of a Snapshot: endpoints in constellation-wide
// node IDs and the one-way delay in netem.DelayQuantum units. Full state
// has no old delay to carry; deltas travel as constellation.LinkDelta.
type LinkState struct {
	A, B   int32
	DelayQ int32
}

// Snapshot is a full shard state at one generation. Digest is the shard's
// chain digest at that generation; a replica adopts it and folds
// subsequent DiffFrames on top. Agent routes the snapshot to the owning
// shard's replica — an agent may follow more than one shard after a
// Reassign.
type Snapshot struct {
	Agent      int32
	Generation uint64
	Digest     uint64
	T          float64
	Active     []int32
	Inactive   []int32
	Links      []LinkState
}

// DiffFrame is one generation's diff record as one shard sees it: the
// coordinator's record with its five lists filtered down to the link
// deltas touching the shard's nodes and the shard's own activity flips,
// every scalar field (T, BaseT, Full, Degraded, the path-cache counters)
// verbatim. It is a view, not a second format — on the wire it is
//
//	i32 agent | u8 flags | constellation.AppendRecordWire(generation, view)
//
// so an agent decodes the shard's view of the coordinator's record, old
// and new delays included. Agent routes the frame to the owning shard's
// replica; it is not folded into the digest chain (the chain is a function
// of content alone). An apply engine is handed the header alone — Agent,
// Generation, Flags, and Full on the loopback side — with every list empty.
type DiffFrame struct {
	Agent      int32
	Generation uint64
	Flags      uint8
	constellation.DiffRecord
}

// Ack reports an agent's applied cursor.
type Ack struct {
	Agent      int32
	Generation uint64
	Digest     uint64
}

// Heartbeat keeps the connection warm; Generation is the sender's current
// head (coordinator→agent) or applied cursor (agent→coordinator).
type Heartbeat struct {
	Generation uint64
}

// Bye announces a clean shutdown.
type Bye struct {
	Reason string
}

// Propose asks the shard's authoritative agent to run one generation's
// policy actions (the FlagInvalidate/FlagSweep/FlagNote bits the loopback
// mirror applied) through its apply engine. Flags carries exactly those
// policy bits; the content for the generation traveled in the DiffFrame.
type Propose struct {
	Agent      int32
	Generation uint64
	Flags      uint8
}

// Applied is the agent's engine result for one proposal: the
// deterministic result digest (a function of generation and policy flags,
// identical on both ends when the proposal was applied faithfully) plus
// the engine's retry counters for the generation.
type Applied struct {
	Agent      int32
	Generation uint64
	Digest     uint64
	Attempts   uint32
	Retried    uint32
}

// Commit closes one proposal: the coordinator verified the agent's result
// digest against its local mirror and folded the generation into the
// shard's commit chain. Digest is the shard's chain digest at the
// committed generation.
type Commit struct {
	Agent      int32
	Generation uint64
	Digest     uint64
}

// Reassign transfers ownership of Shard to the receiving agent: the shard
// rebalance path after agent death. Epoch is the shard's new ownership
// epoch; Generation the head at reassignment time. A Snapshot for the
// shard follows, then its diff stream.
type Reassign struct {
	Shard      int32
	Epoch      uint64
	Generation uint64
}

func appendLinks(b []byte, ls []LinkState) []byte {
	b = wire.AppendU32(b, uint32(len(ls)))
	for _, l := range ls {
		b = wire.AppendI32(b, l.A)
		b = wire.AppendI32(b, l.B)
		b = wire.AppendI32(b, l.DelayQ)
	}
	return b
}

func readLinks(rd *wire.Reader) []LinkState {
	n := rd.Count(12)
	if n == 0 {
		return nil
	}
	ls := make([]LinkState, n)
	for i := range ls {
		ls[i] = LinkState{A: rd.I32(), B: rd.I32(), DelayQ: rd.I32()}
	}
	return ls
}

// appendFrame serializes one frame (envelope + payload) into buf.
func appendFrame(buf []byte, f any) ([]byte, error) {
	start := len(buf)
	switch f := f.(type) {
	case *Hello:
		buf = append(wire.BeginFrame(buf, uint8(FrameHello)), f.Version)
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendU64(buf, f.Cursor)
		buf = wire.AppendU64(buf, f.Digest)
		buf = append(buf, f.Flags)
		buf = wire.AppendStr(buf, f.Token)
	case *Welcome:
		buf = append(wire.BeginFrame(buf, uint8(FrameWelcome)), f.Version)
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendI32(buf, f.Shards)
		buf = wire.AppendU64(buf, f.Generation)
		buf = append(buf, f.Flags)
		buf = wire.AppendU64(buf, uint64(f.Seed))
	case *Snapshot:
		buf = wire.BeginFrame(buf, uint8(FrameSnapshot))
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendU64(buf, f.Generation)
		buf = wire.AppendU64(buf, f.Digest)
		buf = wire.AppendF64(buf, f.T)
		buf = wire.AppendI32s(buf, f.Active)
		buf = wire.AppendI32s(buf, f.Inactive)
		buf = appendLinks(buf, f.Links)
	case *DiffFrame:
		buf = wire.BeginFrame(buf, uint8(FrameDiff))
		buf = wire.AppendI32(buf, f.Agent)
		buf = append(buf, f.Flags)
		buf = constellation.AppendRecordWire(buf, f.Generation, &f.DiffRecord)
	case *Ack:
		buf = wire.BeginFrame(buf, uint8(FrameAck))
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendU64(buf, f.Generation)
		buf = wire.AppendU64(buf, f.Digest)
	case *Heartbeat:
		buf = wire.BeginFrame(buf, uint8(FrameHeartbeat))
		buf = wire.AppendU64(buf, f.Generation)
	case *Bye:
		buf = append(wire.BeginFrame(buf, uint8(FrameBye)), f.Reason...)
	case *Propose:
		buf = wire.BeginFrame(buf, uint8(FramePropose))
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendU64(buf, f.Generation)
		buf = append(buf, f.Flags)
	case *Applied:
		buf = wire.BeginFrame(buf, uint8(FrameApplied))
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendU64(buf, f.Generation)
		buf = wire.AppendU64(buf, f.Digest)
		buf = wire.AppendU32(buf, f.Attempts)
		buf = wire.AppendU32(buf, f.Retried)
	case *Commit:
		buf = wire.BeginFrame(buf, uint8(FrameCommit))
		buf = wire.AppendI32(buf, f.Agent)
		buf = wire.AppendU64(buf, f.Generation)
		buf = wire.AppendU64(buf, f.Digest)
	case *Reassign:
		buf = wire.BeginFrame(buf, uint8(FrameReassign))
		buf = wire.AppendI32(buf, f.Shard)
		buf = wire.AppendU64(buf, f.Epoch)
		buf = wire.AppendU64(buf, f.Generation)
	default:
		return buf, fmt.Errorf("hostlink: cannot encode %T", f)
	}
	if len(buf)-start-5 > MaxFramePayload { // sans prefix and type byte
		return buf[:start], ErrFrameTooLarge
	}
	return wire.EndFrame(buf, start), nil
}

// WriteFrame serializes f into buf (reusing its capacity) and writes the
// whole frame to w in one Write call. It returns the (possibly grown)
// buffer for reuse.
func WriteFrame(w io.Writer, buf []byte, f any) ([]byte, error) {
	buf, err := appendFrame(buf[:0], f)
	if err != nil {
		return buf, err
	}
	_, err = w.Write(buf)
	return buf, err
}

// ReadFrame reads one frame from r, reusing buf for the payload, and
// decodes it into a freshly allocated frame value. It returns the decoded
// frame, the (possibly grown) buffer, and the first error encountered.
func ReadFrame(r io.Reader, buf []byte) (any, []byte, error) {
	t, buf, err := wire.ReadFrame(r, buf)
	if err != nil {
		return nil, buf, err
	}
	f, err := decodeFrame(FrameType(t), buf)
	return f, buf, err
}

// decodeFrame decodes a payload of a known type.
func decodeFrame(t FrameType, payload []byte) (any, error) {
	rd := wire.NewReader(payload)
	switch t {
	case FrameHello:
		f := &Hello{Version: rd.U8(), Agent: rd.I32(), Cursor: rd.U64(), Digest: rd.U64(), Flags: rd.U8(), Token: rd.Str()}
		return f, rd.Done()
	case FrameWelcome:
		f := &Welcome{Version: rd.U8(), Agent: rd.I32(), Shards: rd.I32(), Generation: rd.U64(), Flags: rd.U8(), Seed: int64(rd.U64())}
		return f, rd.Done()
	case FrameSnapshot:
		f := &Snapshot{Agent: rd.I32(), Generation: rd.U64(), Digest: rd.U64(), T: rd.F64(),
			Active: rd.I32s(), Inactive: rd.I32s(), Links: readLinks(rd)}
		return f, rd.Done()
	case FrameDiff:
		f := &DiffFrame{Agent: rd.I32(), Flags: rd.U8()}
		f.Generation, f.DiffRecord = constellation.ReadRecordWire(rd)
		return f, rd.Done()
	case FrameAck:
		f := &Ack{Agent: rd.I32(), Generation: rd.U64(), Digest: rd.U64()}
		return f, rd.Done()
	case FrameHeartbeat:
		f := &Heartbeat{Generation: rd.U64()}
		return f, rd.Done()
	case FrameBye:
		return &Bye{Reason: string(payload)}, nil
	case FramePropose:
		f := &Propose{Agent: rd.I32(), Generation: rd.U64(), Flags: rd.U8()}
		return f, rd.Done()
	case FrameApplied:
		f := &Applied{Agent: rd.I32(), Generation: rd.U64(), Digest: rd.U64(), Attempts: rd.U32(), Retried: rd.U32()}
		return f, rd.Done()
	case FrameCommit:
		f := &Commit{Agent: rd.I32(), Generation: rd.U64(), Digest: rd.U64()}
		return f, rd.Done()
	case FrameReassign:
		f := &Reassign{Shard: rd.I32(), Epoch: rd.U64(), Generation: rd.U64()}
		return f, rd.Done()
	default:
		return nil, fmt.Errorf("hostlink: unknown frame type %d", uint8(t))
	}
}

// FNV-1a, folded 64 bits at a time: the digest chain primitive.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fold64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// ChainSeed is the digest chain's starting value (before any generation
// has been folded).
const ChainSeed uint64 = fnvOffset

// FoldDiff folds one generation's shard-scoped content into a running
// chain digest. Only content is folded — the policy flag bits and the
// FlagChanged/FlagActivity summaries are derivable, and loopback delivery
// decisions must not perturb the chain — so a replica folding the frames
// it receives lands on exactly the digest the coordinator computed for
// that shard. Of a link delta the chain covers the endpoints and the new
// delay quantum, the state a replica ends up in; BaseT and the path-cache
// counters describe the producing tick, not the shard, and stay out.
// Section tags separate the variable-length field groups.
func FoldDiff(chain uint64, f *DiffFrame) uint64 {
	h := fold64(chain, f.Generation)
	h = fold64(h, math.Float64bits(f.T))
	full := uint64(0)
	if f.Full {
		full = 1
	}
	h = fold64(h, full)
	h = fold64(h, uint64(f.Degraded))
	for i, links := range [][]constellation.LinkDelta{f.Added, f.Removed, f.DelayChanged} {
		h = fold64(h, 0xA1+uint64(i))
		for _, l := range links {
			h = fold64(h, uint64(uint32(l.A)))
			h = fold64(h, uint64(uint32(l.B)))
			h = fold64(h, uint64(uint32(l.NewQ)))
		}
	}
	for i, ids := range [][]int32{f.Activated, f.Deactivated} {
		h = fold64(h, 0xA4+uint64(i))
		for _, id := range ids {
			h = fold64(h, uint64(uint32(id)))
		}
	}
	return fold64(h, 0xAF)
}
