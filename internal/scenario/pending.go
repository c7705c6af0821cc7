package scenario

import (
	"hash"
	"time"
)

// pendingRPCs is one flow's outstanding requests: a ring over the ids
// [base, base+n), in issue order. A flow issues ids in increasing order and
// gives every request the same timeout, so deadlines increase with the id
// too and the requests that have timed out at any instant are a prefix of
// the ring. That is what lets a timeout be a comparison at the head instead
// of one scheduled event per request. Once the ring has grown to the flow's
// steady number of requests in flight it allocates nothing.
type pendingRPCs struct {
	slots   []pendingRPC // len is zero or a power of two
	head, n int
	base    uint64 // the id at slots[head]
	// open counts the held requests still waiting for their response.
	open int
}

// pendingRPC is one issued request. Times are offsets from the run's epoch.
type pendingRPC struct {
	sentAt time.Duration
	done   bool // answered, or never sent
}

// push appends the request with the next id, sent at sentAt. A request
// whose send failed is pushed done: it holds its id's slot until it reaches
// the head, and is neither answered nor timed out.
func (p *pendingRPCs) push(id uint64, sentAt time.Duration, done bool) {
	if p.n == 0 {
		p.base = id
	}
	if p.n == len(p.slots) {
		p.grow()
	}
	p.slots[(p.head+p.n)&(len(p.slots)-1)] = pendingRPC{sentAt: sentAt, done: done}
	p.n++
	if !done {
		p.open++
	}
}

// grow doubles the ring, moving the held entries to the front in id order.
func (p *pendingRPCs) grow() {
	slots := make([]pendingRPC, max(2*len(p.slots), 16))
	for i := 0; i < p.n; i++ {
		slots[i] = p.slots[(p.head+i)&(len(p.slots)-1)]
	}
	p.slots, p.head = slots, 0
}

// answer accepts the response to request id arriving at now, returning when
// the request was sent. A response is accepted only while its request is
// still waiting and strictly before the deadline sentAt+timeout: when the
// timeout was an event it was always scheduled before its response's
// delivery, so on an exact tie the timeout fired first. Duplicates, late
// responses and responses to requests already settled are refused.
func (p *pendingRPCs) answer(id uint64, now, timeout time.Duration) (sentAt time.Duration, ok bool) {
	if id < p.base || id-p.base >= uint64(p.n) {
		return 0, false
	}
	e := &p.slots[(p.head+int(id-p.base))&(len(p.slots)-1)]
	if e.done || now >= e.sentAt+timeout {
		return 0, false
	}
	e.done = true
	p.open--
	return e.sentAt, true
}

// settle retires the head entries that are done or whose deadline is at or
// before now, and returns how many of them timed out unanswered.
func (p *pendingRPCs) settle(now, timeout time.Duration) (timeouts int64) {
	for p.n > 0 {
		e := &p.slots[p.head]
		if !e.done {
			if now < e.sentAt+timeout {
				break
			}
			timeouts++
			p.open--
		}
		p.head = (p.head + 1) & (len(p.slots) - 1)
		p.n--
		p.base++
	}
	return timeouts
}

// digest feeds the waiting requests' (id, sent-at) pairs to h in id order.
func (p *pendingRPCs) digest(h hash.Hash) {
	for i := 0; i < p.n; i++ {
		if e := p.slots[(p.head+i)&(len(p.slots)-1)]; !e.done {
			writeUint64(h, p.base+uint64(i))
			writeUint64(h, uint64(e.sentAt))
		}
	}
}
