package hostlink

// ApplyResult summarizes one generation's pass through an apply engine —
// the commit protocol's unit of agreement. The coordinator's loopback
// engine and a remote agent's engine must produce the same Digest for the
// same generation; Attempts and Retried are informational telemetry and
// deliberately excluded from it.
type ApplyResult struct {
	Generation uint64
	Digest     uint64
	Attempts   uint32
	Retried    uint32
}

// ResultApplier is an Applier that reports a digest for its last applied
// generation. Appliers that implement it participate in the commit
// protocol: the fan-out tier records their results and compares them
// against the Applied frames remote agents return. Both sides compute
// that digest from the same input, a header-only frame (see Applier).
type ResultApplier interface {
	Applier
	LastResult() ApplyResult
}

// ResultDigest is the commit-protocol digest of one generation's apply: a
// function of the generation and the frame's policy flags only. Backend
// errors, retry counts and jitter draws are deliberately not folded in, so
// loopback and remote engines agree whenever they were asked to do the
// same work — a mismatch means divergent policy, not a flaky backend.
func ResultDigest(gen uint64, policyFlags uint8) uint64 {
	return fold64(fold64(fold64(ChainSeed, gen), uint64(policyFlags)), 0xE0)
}
