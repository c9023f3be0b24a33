package main

import (
	"fmt"
	"regexp"
)

// metricDef is one reported metric: its unit and which way is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, printed by a
// --trace 0 run.
var endToEnd = []metricDef{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed by a --trace 1 run.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.cancel_frac", "frac", "lower"},
		{"sim.pending_max", "count", "lower"},
		{"sim.cascades", "count", "lower"},
		{"sim.schedule_fire_ns", "ns", "lower"},
		{"sim.cancel_ns", "ns", "lower"},
		{"pkt.pool_hit_frac", "frac", "higher"},
		{"queue.push_pop_ns.q4", "ns", "lower"},
		{"queue.push_pop_ns.q8", "ns", "lower"},
		{"sched.dwrr_ns.q4", "ns", "lower"},
		{"sched.sp_dwrr_ns.q8", "ns", "lower"},
		{"sched.sp_dwrr_ns.q32", "ns", "lower"},
		{"sched.wfq_ns.q4", "ns", "lower"},
		{"marker.tcn_ns", "ns", "lower"},
		{"marker.red_ns", "ns", "lower"},
		{"marker.codel_ns", "ns", "lower"},
		{"marker.mqecn_ns", "ns", "lower"},
		{"marker.marks", "count", "lower"},
		{"fabric.port_send_ns", "ns", "lower"},
		{"fabric.drops", "count", "lower"},
		{"qdisc.enqueue_tx_ns", "ns", "lower"},
		{"transport.timeouts", "count", "lower"},
		{"workload.plan_us_per_flow", "us", "lower"},
		{"metrics.fct_record_ns", "ns", "lower"},
	}
	for _, s := range sinkNames {
		m = append(m,
			metricDef{"obs." + s + ".overhead_frac", "frac", "lower"},
			metricDef{"obs." + s + ".alloc_mb", "MB", "lower"})
	}
	for _, k := range spanKinds {
		m = append(m, metricDef{"span." + k + "_self_s", "s", "lower"})
	}
	return append(m,
		metricDef{"span.overhead_s", "s", "lower"},
		metricDef{"model.explained_frac", "frac", "higher"})
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs validates metric names and units and that no name repeats.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.name):
			return fmt.Errorf("metric name %q is not valid", d.name)
		case !unitRE.MatchString(d.unit):
			return fmt.Errorf("metric %s: unit %q is not valid", d.name, d.unit)
		case d.better != "lower" && d.better != "higher":
			return fmt.Errorf("metric %s: better %q is neither lower nor higher", d.name, d.better)
		case seen[d.name]:
			return fmt.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills values for defs from got; a def without a value is an
// error, since every run must print every metric of its mode.
func report(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}
