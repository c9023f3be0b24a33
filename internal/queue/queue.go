// Package queue implements the switch buffering substrate: per-class FIFO
// packet queues and a multi-queue egress buffer whose memory is shared by
// all queues of a port, admitting packets first-come-first-served until the
// shared capacity is exhausted — the buffer model of the paper's testbed
// (96 KB/port) and simulations (300 KB/port).
package queue

import (
	"fmt"

	"tcn/internal/digest"
	"tcn/internal/invariant"
	"tcn/internal/pkt"
)

// FIFO is a first-in-first-out packet queue backed by a growable ring.
type FIFO struct {
	buf   []*pkt.Packet
	head  int
	n     int
	bytes int
}

// NewFIFO returns an empty queue. The ring capacity starts at 8 and only
// ever doubles, so len(buf) is always a power of two and the ring indices
// reduce with a mask instead of a modulo.
func NewFIFO() *FIFO { return &FIFO{buf: make([]*pkt.Packet, 8)} }

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return q.n }

// Bytes returns the total wire bytes queued.
func (q *FIFO) Bytes() int { return q.bytes }

// Empty reports whether the queue holds no packets.
func (q *FIFO) Empty() bool { return q.n == 0 }

// Head returns the packet at the front without removing it, or nil.
func (q *FIFO) Head() *pkt.Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Push appends p to the tail.
func (q *FIFO) Push(p *pkt.Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
	q.bytes += p.Size
}

// Pop removes and returns the head packet, or nil if empty.
func (q *FIFO) Pop() *pkt.Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.bytes -= p.Size
	return p
}

func (q *FIFO) grow() {
	nb := make([]*pkt.Packet, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// Buffer is the egress buffer of one switch port: a set of per-class FIFO
// queues drawing from a shared memory pool. A packet is admitted iff the
// pool has room, regardless of which queue it joins ("completely shared by
// all the queues in a first-in-first-serve basis", §6.1/§6.2). An optional
// per-queue cap models statically partitioned buffers for ablations.
type Buffer struct {
	queues      []*FIFO
	sharedCap   int // bytes; 0 means unlimited
	perQueueCap int // bytes; 0 means unlimited
	used        int

	// Drops counts packets rejected for lack of buffer, per queue.
	Drops []int
	// DroppedBytes counts the bytes of rejected packets, per queue.
	DroppedBytes []int
}

// NewBuffer returns a buffer with n queues sharing sharedCap bytes
// (0 = unlimited) and an optional perQueueCap (0 = unlimited).
func NewBuffer(n, sharedCap, perQueueCap int) *Buffer {
	if n <= 0 {
		panic(fmt.Sprintf("queue: buffer needs at least one queue, got %d", n))
	}
	b := &Buffer{
		queues:       make([]*FIFO, n),
		sharedCap:    sharedCap,
		perQueueCap:  perQueueCap,
		Drops:        make([]int, n),
		DroppedBytes: make([]int, n),
	}
	for i := range b.queues {
		b.queues[i] = NewFIFO()
	}
	return b
}

// NumQueues returns the number of per-class queues.
func (b *Buffer) NumQueues() int { return len(b.queues) }

// Len returns the packet count of queue i.
func (b *Buffer) Len(i int) int { return b.queues[i].Len() }

// Bytes returns the queued bytes of queue i.
func (b *Buffer) Bytes(i int) int { return b.queues[i].Bytes() }

// Used returns the total bytes buffered across all queues of the port.
func (b *Buffer) Used() int { return b.used }

// Head returns the head packet of queue i, or nil.
func (b *Buffer) Head(i int) *pkt.Packet { return b.queues[i].Head() }

// Admit reports whether a packet of the given size destined for queue i
// would be accepted right now.
func (b *Buffer) Admit(i, size int) bool {
	if b.sharedCap > 0 && b.used+size > b.sharedCap {
		return false
	}
	if b.perQueueCap > 0 && b.queues[i].Bytes()+size > b.perQueueCap {
		return false
	}
	return true
}

// Push enqueues p onto queue i if the buffer admits it, and reports whether
// the packet was accepted. On rejection the drop counters are updated and
// the caller owns the packet.
func (b *Buffer) Push(i int, p *pkt.Packet) bool {
	if !b.Admit(i, p.Size) {
		b.Drops[i]++
		b.DroppedBytes[i] += p.Size
		return false
	}
	b.queues[i].Push(p)
	b.used += p.Size
	if invariant.Enabled {
		b.checkAccounting()
	}
	return true
}

// Pop dequeues the head packet of queue i, or nil.
func (b *Buffer) Pop(i int) *pkt.Packet {
	p := b.queues[i].Pop()
	if p != nil {
		b.used -= p.Size
	}
	if invariant.Enabled {
		b.checkAccounting()
	}
	return p
}

// TotalDrops sums the per-queue drop counters.
func (b *Buffer) TotalDrops() int {
	t := 0
	for _, d := range b.Drops {
		t += d
	}
	return t
}

// Empty reports whether every queue is empty.
func (b *Buffer) Empty() bool { return b.used == 0 && b.totalLen() == 0 }

func (b *Buffer) totalLen() int {
	n := 0
	for _, q := range b.queues {
		n += q.Len()
	}
	return n
}

// DigestState folds the buffer occupancy into a run fingerprint: the
// shared-pool counter, every queue's packet and byte counts, and the drop
// tallies. Packet contents are not digested — occupancy plus the drop
// history pins the buffer's externally observable state, and the engine
// digest already covers the in-flight event timing.
func (b *Buffer) DigestState(h *digest.Hash) {
	h.WriteInt(b.used)
	h.WriteInt(len(b.queues))
	for _, q := range b.queues {
		h.WriteInt(q.Len())
		h.WriteInt(q.Bytes())
	}
	for i := range b.Drops {
		h.WriteInt(b.Drops[i])
		h.WriteInt(b.DroppedBytes[i])
	}
}

// checkAccounting asserts the shared-pool identities after every
// mutation (invariants builds only): the pool counter equals the sum of
// the per-queue byte counts, never goes negative, and never exceeds the
// configured shared capacity.
func (b *Buffer) checkAccounting() {
	sum := 0
	for _, q := range b.queues {
		sum += q.Bytes()
		invariant.Checkf(q.Bytes() >= 0, "queue: negative per-queue bytes %d", q.Bytes())
		invariant.Checkf(q.Len() >= 0, "queue: negative per-queue length %d", q.Len())
	}
	invariant.Checkf(b.used == sum,
		"queue: shared pool counter %d != sum of queue bytes %d", b.used, sum)
	invariant.Checkf(b.used >= 0, "queue: negative pool usage %d", b.used)
	invariant.Checkf(b.sharedCap == 0 || b.used <= b.sharedCap,
		"queue: pool usage %d exceeds shared cap %d", b.used, b.sharedCap)
}
