package qdisc

import (
	"testing"
	"testing/quick"

	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/obs"
	"tcn/internal/pkt"
	"tcn/internal/sched"
	"tcn/internal/sim"
	"tcn/internal/testutil"
)

func TestTokenBucketBasics(t *testing.T) {
	tb := fabric.NewTokenBucket(fabric.Gbps, 2500)
	// Bucket starts full.
	if ok, _ := tb.Take(0, 2500); !ok {
		t.Fatal("full bucket should admit a burst up to depth")
	}
	// Immediately after, a packet must wait.
	ok, wait := tb.Take(0, 1500)
	if ok {
		t.Fatal("empty bucket should refuse")
	}
	// 1500 bytes at 1 Gbps accrue in 12 us.
	if wait != 12*sim.Microsecond {
		t.Fatalf("wait %v, want 12us", wait)
	}
	// After the wait, the packet fits exactly.
	if ok, _ := tb.Take(12*sim.Microsecond, 1500); !ok {
		t.Fatal("tokens should have accrued")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	tb := fabric.NewTokenBucket(fabric.Gbps, 2500)
	tb.Take(0, 2500)
	// A long idle period must not accumulate more than the burst.
	if got := tb.Level(sim.Second); !testutil.Eq(got, 2500) {
		t.Fatalf("tokens %v, want capped at 2500", got)
	}
}

// Property: over any sequence of takes at increasing times, granted bytes
// never exceed rate×elapsed + burst (the token bucket invariant).
func TestPropertyTokenBucketConformance(t *testing.T) {
	f := func(steps []uint16) bool {
		const burst = 2500
		rate := fabric.Gbps
		tb := fabric.NewTokenBucket(rate, burst)
		now := sim.Time(0)
		granted := 0
		for _, s := range steps {
			now += sim.Time(s)
			size := 64 + int(s)%1436
			if ok, _ := tb.Take(now, size); ok {
				granted += size
			}
			limit := float64(rate)/8*now.Seconds() + burst
			if float64(granted) > limit+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// drive pushes n MTU packets into a qdisc and runs the engine.
func drive(t *testing.T, eng *sim.Engine, q *Qdisc, n int) []sim.Time {
	t.Helper()
	var times []sim.Time
	for i := 0; i < n; i++ {
		q.Enqueue(&pkt.Packet{Size: 1500, ECN: pkt.ECT0, Seq: int64(i)})
	}
	eng.Run()
	return times
}

func TestQdiscShapesBelowLineRate(t *testing.T) {
	eng := sim.NewEngine()
	var lastTx sim.Time
	var sent int
	q := New(eng, Config{
		Queues:   1,
		LineRate: fabric.Gbps,
		Transmit: func(now sim.Time, p *pkt.Packet) {
			lastTx = now
			sent++
		},
	})
	const n = 1000
	drive(t, eng, q, n)
	if sent != n {
		t.Fatalf("sent %d, want %d", sent, n)
	}
	// Effective rate must be ~99.5% of line rate: n packets of 1500B
	// need ≥ n×1500×8/0.995e9 seconds.
	ideal := float64(n) * 1500 * 8 / 0.995e9 * 1e9
	minDuration := sim.Time(ideal * 0.99)
	if lastTx < minDuration {
		t.Fatalf("finished in %v, faster than the shaped rate allows (%v)", lastTx, minDuration)
	}
	// But not pathologically slower (within 2%).
	maxDuration := sim.Time(ideal * 1.02)
	if lastTx > maxDuration {
		t.Fatalf("finished in %v, slower than shaping explains (%v)", lastTx, maxDuration)
	}
}

func TestQdiscPipelineOrder(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	m := &recordingMarker{
		onEnq: func() { order = append(order, "enq-mark") },
		onDeq: func() { order = append(order, "deq-mark") },
	}
	q := New(eng, Config{
		Queues:   1,
		LineRate: fabric.Gbps,
		Marker:   m,
		Transmit: func(sim.Time, *pkt.Packet) { order = append(order, "tx") },
	})
	q.Enqueue(&pkt.Packet{Size: 1500, ECN: pkt.ECT0})
	eng.Run()
	if len(order) != 3 || order[0] != "enq-mark" || order[1] != "deq-mark" || order[2] != "tx" {
		t.Fatalf("pipeline order %v", order)
	}
}

type recordingMarker struct{ onEnq, onDeq func() }

func (r *recordingMarker) Name() string { return "recording" }
func (r *recordingMarker) OnEnqueue(sim.Time, int, *pkt.Packet, core.PortState, *core.Verdict) {
	r.onEnq()
}
func (r *recordingMarker) OnDequeue(sim.Time, int, *pkt.Packet, core.PortState, *core.Verdict) {
	r.onDeq()
}

func TestQdiscTCNMarksUnderBacklog(t *testing.T) {
	eng := sim.NewEngine()
	marked, total := 0, 0
	tcn := core.NewTCN(100 * sim.Microsecond)
	q := New(eng, Config{
		Queues:   1,
		LineRate: fabric.Gbps,
		Marker:   tcn,
		Transmit: func(_ sim.Time, p *pkt.Packet) {
			total++
			if p.ECN == pkt.CE {
				marked++
			}
		},
	})
	// 100 MTU packets at once: the tail waits ~1.2ms >> 100us, so most
	// packets must be marked while the first few escape unmarked.
	drive(t, eng, q, 100)
	if total != 100 {
		t.Fatalf("sent %d", total)
	}
	if marked < 80 {
		t.Fatalf("marked %d, expected most of the burst", marked)
	}
	if marked == total {
		t.Fatal("head packets with low sojourn should escape marking")
	}
	if int(tcn.Marks) != marked {
		t.Fatal("marker counter mismatch")
	}
}

func TestQdiscDropsWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	q := New(eng, Config{
		Queues:      1,
		BufferBytes: 15_000,
		LineRate:    fabric.Gbps,
		Transmit:    func(sim.Time, *pkt.Packet) {},
	})
	accepted := 0
	for i := 0; i < 20; i++ {
		if q.Enqueue(&pkt.Packet{Size: 1500}) {
			accepted++
		}
	}
	if drops := q.Buffer().TotalDrops(); accepted == 20 || drops == 0 {
		t.Fatalf("accepted %d drops %d, buffer limit not enforced", accepted, drops)
	}
	eng.Run()
	if int(q.TxPackets[0]) != accepted {
		t.Fatalf("sent %d, want %d", q.TxPackets[0], accepted)
	}
}

// TestQdiscInstrumentedCounters pins that the registry view agrees with
// the qdisc's own transmit and drop tallies and records sojourns for
// every transmission.
func TestQdiscInstrumentedCounters(t *testing.T) {
	eng := sim.NewEngine()
	q := New(eng, Config{
		Queues:      1,
		BufferBytes: 15_000,
		LineRate:    fabric.Gbps,
		Marker:      core.NewTCN(50 * sim.Microsecond),
		Transmit:    func(sim.Time, *pkt.Packet) {},
	})
	r := obs.NewRegistry()
	q.Instrument(r, "qd")
	for i := 0; i < 20; i++ {
		q.Enqueue(&pkt.Packet{Size: 1500, ECN: pkt.ECT0})
	}
	eng.Run()
	sent := q.TxPackets[0]
	if got := r.Counter("qd.q0.tx_packets").Value(); got != sent {
		t.Fatalf("tx_packets %d, qdisc sent %d", got, sent)
	}
	if got, drops := r.Counter("qd.q0.drop_packets").Value(), int64(q.Buffer().TotalDrops()); got != drops {
		t.Fatalf("drop_packets %d, qdisc drops %d", got, drops)
	}
	if got := r.Counter("qd.q0.mark_packets").Value(); got == 0 {
		t.Fatal("backlogged TCN qdisc recorded no marks")
	}
	h := r.Histogram("qd.q0.sojourn_ns")
	if h.Count() != sent {
		t.Fatalf("sojourn samples %d, want one per transmission (%d)", h.Count(), sent)
	}
	if h.Max() == 0 {
		t.Fatal("a 15KB backlog at 1Gbps must show nonzero sojourns")
	}
}

func TestQdiscPortState(t *testing.T) {
	eng := sim.NewEngine()
	q := New(eng, Config{Queues: 2, LineRate: fabric.Gbps, Transmit: func(sim.Time, *pkt.Packet) {}})
	var st core.PortState = q
	if st.NumQueues() != 2 || st.LinkRate() != 1e9 {
		t.Fatal("PortState accessors")
	}
	q.Enqueue(&pkt.Packet{Size: 1500, DSCP: 1})
	q.Enqueue(&pkt.Packet{Size: 1500, DSCP: 1})
	// One packet is in service; one remains queued.
	if st.QueueBytes(1) != 1500 || st.PortBytes() != 1500 {
		t.Fatalf("occupancy %d/%d", st.QueueBytes(1), st.PortBytes())
	}
}

func TestQdiscSPCompositePriority(t *testing.T) {
	// End-to-end priority through the pipeline: with both queues
	// backlogged, the strict queue's packets all leave first.
	eng := sim.NewEngine()
	var order []uint8
	q := New(eng, Config{
		Queues:    2,
		LineRate:  fabric.Gbps,
		Scheduler: sched.NewSP(),
		Transmit:  func(_ sim.Time, p *pkt.Packet) { order = append(order, p.DSCP) },
	})
	// Fill the low queue first, then the strict one: service order must
	// still favor the strict queue for everything not yet in flight.
	for i := 0; i < 5; i++ {
		q.Enqueue(&pkt.Packet{Size: 1500, DSCP: 1})
	}
	for i := 0; i < 5; i++ {
		q.Enqueue(&pkt.Packet{Size: 1500, DSCP: 0})
	}
	eng.Run()
	// The very first packet (DSCP 1) was already committed before any
	// strict traffic arrived; everything after must be 0,0,0,0,0 then 1s.
	if order[0] != 1 {
		t.Fatalf("first committed packet should be the early low-priority one, got %v", order)
	}
	for i := 1; i <= 5; i++ {
		if order[i] != 0 {
			t.Fatalf("strict packets not prioritized: %v", order)
		}
	}
}

func TestQdiscTokenBucketIdleDoesNotBurstBeyondDepth(t *testing.T) {
	// After a long idle period, at most Burst bytes may leave
	// back-to-back faster than the shaped rate.
	eng := sim.NewEngine()
	var times []sim.Time
	q := New(eng, Config{
		Queues:   1,
		LineRate: fabric.Gbps,
		Transmit: func(now sim.Time, p *pkt.Packet) { times = append(times, now) },
	})
	eng.At(100*sim.Millisecond, func() {
		for i := 0; i < 5; i++ {
			q.Enqueue(&pkt.Packet{Size: 1500})
		}
	})
	eng.Run()
	if len(times) != 5 {
		t.Fatalf("sent %d", len(times))
	}
	// Packet 0 spends the bucket (2500B -> 1 full packet + change);
	// packet 1 must already wait for tokens: spacing >= the shaped
	// serialization time of 1500B (~12.06us at 0.995 Gbps).
	gap := times[1] - times[0]
	if gap < 12*sim.Microsecond {
		t.Fatalf("second packet left after only %v; bucket depth not enforced", gap)
	}
}
