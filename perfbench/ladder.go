package main

import (
	"time"

	"tcn/internal/aqm"
	"tcn/internal/core"
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/pkt"
	"tcn/internal/qdisc"
	"tcn/internal/queue"
	"tcn/internal/sched"
	"tcn/internal/sim"
	"tcn/internal/workload"
)

// Ladder iteration policy: a repeat runs at least minIters iterations
// and at least minRepeat of wall time; every rung gets ladderRepeats
// repeats, interleaved across rungs, and reports the median.
const (
	minIters      = 100_000
	minRepeat     = 100 * time.Millisecond
	ladderRepeats = 5
)

// Every rung moves 1500 B packets; tableSize sizes the precomputed input
// tables rungs cycle through so the loop draws no random numbers.
const (
	mtu       = 1500
	tableSize = 1 << 12
	tableMask = tableSize - 1
)

// rung is one layer microbenchmark: op(n) runs n iterations; scale, when
// set, converts ns per iteration to the metric's unit.
type rung struct {
	name  string
	scale float64
	op    func(n int)
}

// portShape is the egress-port configuration a workload's switch ports
// run, so port-level rungs measure the workload's own pipeline.
type portShape struct {
	queues    int
	high      int // strict-priority queues ahead of DWRR
	rate      fabric.Rate
	prop      sim.Time
	buffer    int
	rttLambda sim.Time
}

func shapeOf(f family) portShape {
	if f == famFig10 {
		return portShape{queues: 1 + lsServices, high: 1, rate: 10 * fabric.Gbps, prop: 650 * sim.Nanosecond, buffer: 300_000, rttLambda: 78 * sim.Microsecond}
	}
	return portShape{queues: 4, rate: fabric.Gbps, prop: 2500 * sim.Nanosecond, buffer: 96_000, rttLambda: 256 * sim.Microsecond}
}

func (s portShape) scheduler() sched.Scheduler {
	if s.high > 0 {
		return sched.NewSPOver(s.high, sched.NewDWRREqual(s.queues-s.high, mtu))
	}
	return sched.NewDWRREqual(s.queues, mtu)
}

// ladder builds every rung. depth is the workload's peak pending-event
// count; f selects the port shape of the port and plan rungs.
func ladder(f family, depth int) []rung {
	sh := shapeOf(f)
	return []rung{
		{name: "sim.schedule_fire_ns", op: scheduleFire(depth)},
		{name: "sim.cancel_ns", op: scheduleCancel(depth)},
		{name: "queue.push_pop_ns.q4", op: pushPop(4)},
		{name: "queue.push_pop_ns.q8", op: pushPop(8)},
		{name: "sched.dwrr_ns.q4", op: schedOp(4, 0, func() sched.Scheduler { return sched.NewDWRREqual(4, mtu) })},
		{name: "sched.sp_dwrr_ns.q8", op: schedOp(8, 1, func() sched.Scheduler { return sched.NewSPOver(1, sched.NewDWRREqual(7, mtu)) })},
		{name: "sched.sp_dwrr_ns.q32", op: schedOp(32, 1, func() sched.Scheduler { return sched.NewSPOver(1, sched.NewDWRREqual(31, mtu)) })},
		{name: "sched.wfq_ns.q4", op: schedOp(4, 0, func() sched.Scheduler { return sched.NewWFQEqual(4) })},
		{name: "marker.tcn_ns", op: markerOp(func(sched.Scheduler) core.Marker { return core.NewTCN(256 * sim.Microsecond) })},
		{name: "marker.red_ns", op: markerOp(func(sched.Scheduler) core.Marker { return aqm.NewQueueRED(32_000) })},
		{name: "marker.codel_ns", op: markerOp(func(sched.Scheduler) core.Marker {
			return aqm.NewCoDel(4, sim.Time(51.2*1000), 1024*sim.Microsecond)
		})},
		{name: "marker.mqecn_ns", op: markerOp(func(s sched.Scheduler) core.Marker {
			return aqm.NewMQECN(s.(aqm.RoundInfo), 4, 256*sim.Microsecond, fabric.Gbps.Serialize(mtu))
		})},
		{name: "fabric.port_send_ns", op: portSend(sh)},
		{name: "qdisc.enqueue_tx_ns", op: qdiscTx()},
		{name: "workload.plan_us_per_flow", scale: 1e-3, op: planFlows(f)},
		{name: "metrics.fct_record_ns", op: fctRecord()},
	}
}

// runLadder calibrates every rung to the iteration policy, then runs the
// repeats round-robin so slow drifts of the host hit every rung alike.
// It returns the median per rung in the rung's unit.
func runLadder(rungs []rung) map[string]float64 {
	iters := make([]int, len(rungs))
	for i, r := range rungs {
		n := minIters
		for {
			ns := timeOp(r.op, n)
			if float64(n)*ns >= float64(minRepeat.Nanoseconds()) {
				break
			}
			n = int(float64(minRepeat.Nanoseconds())/ns*1.2) + 1
		}
		iters[i] = n
	}
	samples := make([][]float64, len(rungs))
	for rep := 0; rep < ladderRepeats; rep++ {
		for i, r := range rungs {
			samples[i] = append(samples[i], timeOp(r.op, iters[i]))
		}
	}
	out := make(map[string]float64, len(rungs))
	for i, r := range rungs {
		scale := r.scale
		if scale == 0 {
			scale = 1
		}
		out[r.name] = median(samples[i]) * scale
	}
	return out
}

// delayTable returns tableSize delays drawn uniformly from [lo, hi).
func delayTable(lo, hi sim.Time) []sim.Time {
	r := sim.NewRand(1)
	t := make([]sim.Time, tableSize)
	for i := range t {
		t[i] = lo + sim.Time(r.Int63n(int64(hi-lo)))
	}
	return t
}

// parkEvents fills the engine with n events far beyond any rung's
// horizon: the flow arrivals and retransmission timers that sit in a
// workload's pending set while packets churn below them.
func parkEvents(e *sim.Engine, n int) {
	noop := func() {}
	far := delayTable(1000*sim.Second, 2000*sim.Second)
	for i := 0; i < n; i++ {
		e.After(far[i&tableMask], noop)
	}
}

// scheduleFire times AfterArg plus the firing of one event with the
// pending set held at depth: half of it packet-scale events that re-arm
// themselves 0–20 µs ahead when they fire, half parked far away.
func scheduleFire(depth int) func(int) {
	depth = max(depth, 2)
	e := sim.NewEngine()
	parkEvents(e, depth-depth/2)
	delays := delayTable(0, 20*sim.Microsecond)
	var fired, target int
	var fire func(any)
	fire = func(arg any) {
		fired++
		e.AfterArg(delays[fired&tableMask], fire, arg)
		if fired == target {
			e.Stop()
		}
	}
	for i := 0; i < depth/2; i++ {
		e.AfterArg(delays[i&tableMask], fire, nil)
	}
	return func(n int) {
		target = fired + n
		e.RunUntil(sim.MaxTime)
	}
}

// scheduleCancel times arming an RTO-horizon timer and canceling it —
// what the transport does on every ACK — against a pending set of depth.
func scheduleCancel(depth int) func(int) {
	e := sim.NewEngine()
	parkEvents(e, max(depth, 1))
	delays := delayTable(5*sim.Millisecond, 10*sim.Millisecond)
	fn := func(any) {}
	return func(n int) {
		for i := 0; i < n; i++ {
			e.Cancel(e.AfterArg(delays[i&tableMask], fn, nil))
		}
	}
}

// backlog fills every queue of b from first on with perQueue packets.
func backlog(b *queue.Buffer, first, perQueue int, enq func(qi int, p *pkt.Packet)) {
	for qi := first; qi < b.NumQueues(); qi++ {
		for k := 0; k < perQueue; k++ {
			p := &pkt.Packet{Kind: pkt.Data, Size: mtu, ECN: pkt.ECT0, DSCP: uint8(qi)}
			b.Push(qi, p)
			if enq != nil {
				enq(qi, p)
			}
		}
	}
}

// pushPop times Buffer.Pop plus Push of one packet, cycling over queues
// that each hold four packets.
func pushPop(queues int) func(int) {
	b := queue.NewBuffer(queues, 0, 0)
	backlog(b, 0, 4, nil)
	return func(n int) {
		for i := 0; i < n; i++ {
			qi := i % queues
			b.Push(qi, b.Pop(qi))
		}
	}
}

// schedOp times one OnEnqueue+Next+OnDequeue with every queue from high
// on backlogged, as a packet leaving and one arriving at a busy port: the
// chosen queue's head is popped and pushed back, so one Buffer Pop and
// Push ride along (queue.push_pop_ns prices them alone). A strict queue
// stays empty; were it backlogged, the composite would never reach DWRR.
func schedOp(queues, high int, mk func() sched.Scheduler) func(int) {
	b := queue.NewBuffer(queues, 0, 0)
	s := mk()
	s.Bind(b)
	backlog(b, high, 4, func(qi int, p *pkt.Packet) { s.OnEnqueue(0, qi, p) })
	var now sim.Time
	step := fabric.Gbps.Serialize(mtu)
	return func(n int) {
		for i := 0; i < n; i++ {
			now += step
			qi := s.Next(now)
			p := b.Pop(qi)
			s.OnDequeue(now, qi, p)
			b.Push(qi, p)
			s.OnEnqueue(now, qi, p)
		}
	}
}

// occupancy is a fixed PortState whose queue and port bytes the marker
// rung sets before each call.
type occupancy struct{ qbytes, portBytes int }

func (o *occupancy) NumQueues() int     { return 4 }
func (o *occupancy) QueueLen(int) int   { return o.qbytes / mtu }
func (o *occupancy) QueueBytes(int) int { return o.qbytes }
func (o *occupancy) PortBytes() int     { return o.portBytes }
func (o *occupancy) LinkRate() int64    { return int64(fabric.Gbps) }

// markerOp times OnEnqueue+OnDequeue of one packet on a 4-queue 1 Gbps
// port whose occupancy is drawn from 0–96 KB (the Fig 6 buffer), the
// sojourn being that backlog's drain time, so about half the calls land
// on each side of the TCN and RED thresholds. The marker gets a DWRR over
// a backlogged buffer for MQ-ECN's round estimates.
func markerOp(mk func(sched.Scheduler) core.Marker) func(int) {
	b := queue.NewBuffer(4, 0, 0)
	dwrr := sched.NewDWRREqual(4, mtu)
	dwrr.Bind(b)
	backlog(b, 0, 4, func(qi int, p *pkt.Packet) { dwrr.OnEnqueue(0, qi, p) })
	m := mk(dwrr)
	r := sim.NewRand(2)
	port := make([]int, tableSize)
	for i := range port {
		port[i] = r.Intn(96_000)
	}
	st := &occupancy{}
	p := &pkt.Packet{Kind: pkt.Data, Size: mtu}
	var v core.Verdict
	var now sim.Time
	step := fabric.Gbps.Serialize(mtu)
	return func(n int) {
		for i := 0; i < n; i++ {
			now += step
			pb := port[i&tableMask]
			st.portBytes, st.qbytes = pb, pb/4
			qi := i & 3
			p.ECN = pkt.ECT0
			p.EnqueuedAt = now - fabric.Gbps.Serialize(pb)
			v.Reset(core.StageEnqueue, st.qbytes, st.portBytes)
			m.OnEnqueue(now, qi, p, st, &v)
			v.Reset(core.StageDequeue, st.qbytes, st.portBytes)
			m.OnDequeue(now, qi, p, st, &v)
		}
	}
}

// sink is a link peer that counts deliveries and recycles the packets.
type sink struct {
	got  int
	free []*pkt.Packet
}

func (s *sink) Receive(p *pkt.Packet) {
	s.got++
	s.free = append(s.free, p)
}

func (s *sink) packet(dscp uint8) *pkt.Packet {
	var p *pkt.Packet
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		p = &pkt.Packet{}
	}
	*p = pkt.Packet{Kind: pkt.Data, Size: mtu, ECN: pkt.ECT0, DSCP: dscp}
	return p
}

// burst is how many packets the port rungs offer at one instant: enough
// to queue and exercise the scheduler, few enough never to overflow.
const burst = 8

// portSend times Port.Send through transmit and delivery into a
// counting receiver, driven by the engine: bursts of burst packets spread
// over the queues, each drained before the next.
func portSend(sh portShape) func(int) {
	e := sim.NewEngine()
	rx := &sink{}
	pt := fabric.NewPort(e, fabric.PortConfig{
		Rate: sh.rate, PropDelay: sh.prop, Queues: sh.queues, BufferBytes: sh.buffer,
		Scheduler: sh.scheduler(), Marker: core.NewTCN(sh.rttLambda),
	}, rx)
	var k int
	return func(n int) {
		for sent := 0; sent < n; sent += burst {
			for j := 0; j < burst; j++ {
				k++
				pt.Send(rx.packet(uint8(sh.high + k%(sh.queues-sh.high))))
			}
			e.Run()
		}
	}
}

// qdiscTx times Qdisc.Enqueue through Transmit with the token-bucket
// shaper on, on the Fig 6 port shape (4 queues, DWRR, TCN, 1 Gbps).
func qdiscTx() func(int) {
	e := sim.NewEngine()
	rx := &sink{}
	q := qdisc.New(e, qdisc.Config{
		Queues: 4, BufferBytes: 96_000, Scheduler: sched.NewDWRREqual(4, mtu),
		Marker: core.NewTCN(256 * sim.Microsecond), LineRate: fabric.Gbps,
		Transmit: func(_ sim.Time, p *pkt.Packet) { rx.Receive(p) },
	})
	var k int
	return func(n int) {
		for sent := 0; sent < n; sent += burst {
			for j := 0; j < burst; j++ {
				k++
				q.Enqueue(rx.packet(uint8(k % 4)))
			}
			e.Run()
		}
	}
}

// planFlows times workload.Plan for the family's arrival plan.
func planFlows(f family) func(int) {
	return func(n int) { workload.Plan(sim.NewRand(1), planConfig(f, n)) }
}

// fctRecord times the streaming FCTCollector.Record (tcnsim's default
// collector) on web-search sizes.
func fctRecord() func(int) {
	col := metrics.NewStreamingFCTCollector(metrics.DefaultCompression)
	r := sim.NewRand(3)
	recs := make([]metrics.FlowRecord, tableSize)
	for i := range recs {
		size := workload.WebSearch.Sample(r)
		recs[i] = metrics.FlowRecord{Size: size, FCT: sim.Time(size*8) + sim.Time(r.Intn(1_000_000))}
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			col.Record(recs[i&tableMask])
		}
	}
}
