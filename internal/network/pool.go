package network

// poolBlock is how many Packets the pool allocates at once; poolPayloadCap
// is the payload capacity pre-carved for each of them. 128 bytes covers
// every steady-state header this repository marshals (Sprout's 76-byte
// header plus forecast, TCP's 21, the app and saturator formats); a packet
// whose payload outgrows it keeps its grown buffer for later reuses.
const (
	poolBlock      = 64
	poolPayloadCap = 128
)

// Pool is an arena of Packets for one simulation world. Endpoints draw
// every wire packet from it instead of the heap, so a 150-second run costs
// a handful of block allocations instead of one per packet — and a *reused*
// world (engine worker-state reuse) costs none at all, because Reset
// returns every packet to the pool while retaining the arena.
//
// The pool never frees individual packets: a packet handed out by Get stays
// valid (and may be referenced by queues, rings or pending buffers) until
// the next Reset. Reset is therefore only safe at a world boundary, when
// every component that could hold a packet has itself been reset or
// discarded. Pools are not safe for concurrent use; each engine worker owns
// its own.
//
// A nil *Pool is valid and degenerates to plain heap allocation, so
// components can take an optional pool without branching at every call
// site.
type Pool struct {
	blocks [][]Packet
	used   int // packets handed out since the last Reset
}

// Get returns a packet with zeroed metadata and an empty payload (retained
// capacity). On a nil pool it allocates from the heap.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	bi, pi := p.used/poolBlock, p.used%poolBlock
	if bi == len(p.blocks) {
		block := make([]Packet, poolBlock)
		slab := make([]byte, poolBlock*poolPayloadCap)
		for i := range block {
			lo := i * poolPayloadCap
			block[i].Payload = slab[lo : lo : lo+poolPayloadCap]
		}
		p.blocks = append(p.blocks, block)
	}
	pkt := &p.blocks[bi][pi]
	p.used++
	pkt.Flow, pkt.Seq, pkt.Size = 0, 0, 0
	pkt.SentAt, pkt.EnqueuedAt = 0, 0
	pkt.Payload = pkt.Payload[:0]
	return pkt
}

// Reset reclaims every packet at once, retaining the arena (and each
// packet's payload capacity) for the next run. See the type comment for
// when this is safe.
func (p *Pool) Reset() {
	if p != nil {
		p.used = 0
	}
}

// InUse returns how many packets are currently handed out.
func (p *Pool) InUse() int {
	if p == nil {
		return 0
	}
	return p.used
}

// Allocated returns the arena capacity in packets.
func (p *Pool) Allocated() int {
	if p == nil {
		return 0
	}
	return len(p.blocks) * poolBlock
}
