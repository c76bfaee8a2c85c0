package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The table below is the single
// definition of every metric the benchmark reports; BENCHMARK.json at the
// repository root mirrors it (the smoke test pins the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before compare reports a regression.
	Bound float64
}

// endToEnd metrics come from untraced runs only. Every one is reported on
// every workload and is never zero; the timings are scaled to the reference
// host (calib.go). The bounds are as wide as a gate may be (25%): on the
// shared virtual machines the benchmark runs on, unscaled timings of ten
// consecutive runs spread by up to 45% (interquartile range over median),
// and scaled ones by up to 15%; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"host_ns_per_sim_cycle", "ns/cycle", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// profBuckets are the Go packages the traced run's CPU profile is folded
// into; samples in any other package land in "other".
var profBuckets = []string{
	"pipeline", "sim", "secmem", "sha256", "aes", "ctr", "hmac", "mactree",
	"mem", "cache", "interp", "analysis", "runtime", "other",
}

// perLayer metrics come from traced runs only, one group per module.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.new_machine_ms_p50", "ms", "lower", 0},
		{"sim.new_machine_share", "fraction", "lower", 0},
		{"sim.protected_lines", "count", "lower", 0},
		{"secmem.protect_ns_per_line", "ns", "lower", 0},
		{"secmem.protect_tree_ns_per_line", "ns", "lower", 0},
		{"sim.run_ns_per_cycle", "ns/cycle", "lower", 0},
		{"pipeline.ipc", "inst/cycle", "higher", 0},
		{"pipeline.squash_per_kinst", "1/kinst", "lower", 0},
		{"pipeline.cycle_ns", "ns", "lower", 0},
		{"fastpath.uop_hit_ratio", "fraction", "higher", 0},
		{"fastpath.skip_cycle_frac", "fraction", "higher", 0},
		{"fastpath.wakeup_visits_per_inst", "1/inst", "lower", 0},
		{"secmem.fetches_per_kcycle", "1/kcycle", "lower", 0},
		{"secmem.writebacks_per_kcycle", "1/kcycle", "lower", 0},
		{"secmem.ctr_hit_ratio", "fraction", "higher", 0},
		{"secmem.tree_node_fetches_per_fetch", "count", "lower", 0},
		{"aes.block_ns", "ns", "lower", 0},
		{"ctr.line_ns", "ns", "lower", 0},
		{"hmac.line_ns", "ns", "lower", 0},
		{"mactree.verify_ns", "ns", "lower", 0},
		{"mactree.set_leaf_ns", "ns", "lower", 0},
		{"pacmac.sign_ns", "ns", "lower", 0},
		{"cache.l1_access_ns", "ns", "lower", 0},
		{"cache.l2_access_ns", "ns", "lower", 0},
		{"cache.l1d_miss_ratio", "fraction", "lower", 0},
		{"cache.l2_miss_ratio", "fraction", "lower", 0},
		{"dram.access_ns", "ns", "lower", 0},
		{"dram.row_hit_ratio", "fraction", "higher", 0},
		{"bus.txn_ns", "ns", "lower", 0},
		{"bus.busy_frac", "fraction", "lower", 0},
		{"interp.oracle_ms_p50", "ms", "lower", 0},
		{"diffcheck.digest_ms_p50", "ms", "lower", 0},
		{"diffcheck.oracle_memo_hit_ratio", "fraction", "higher", 0},
		{"contract.derive_ms_p50", "ms", "lower", 0},
		{"campaign.get_us", "us", "lower", 0},
		{"campaign.put_us", "us", "lower", 0},
		{"asm.assemble_ms_p50", "ms", "lower", 0},
		{"model.explained_frac", "fraction", "higher", 0},
		{"model.residual_ms", "ms", "lower", 0},
	}
	for _, b := range profBuckets {
		defs = append(defs, metricDef{"prof." + b + "_pct", "%", "lower", 0})
	}
	return append(defs,
		metricDef{"trace_overhead_pct", "%", "lower", 0},
		metricDef{"host.calib_ns", "ns", "lower", 0},
	)
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]metricValue

// fill records every metric of defs from vals; a metric the run could not
// compute (an empty sample set) reads 0.
func fill(defs []metricDef, vals map[string]float64) metricSet {
	out := metricSet{}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the rule the benchmark's spread
// is judged by. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
