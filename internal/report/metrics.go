// Metrics rendering: the human-readable face of an obs.Snapshot — per-run
// counter/histogram dumps and the per-scheme stall/gap summary table the
// sweep tools print.

package report

import (
	"fmt"
	"io"
	"strings"

	"authpoint/internal/campaign"
	"authpoint/internal/obs"
)

// WriteMetrics renders a metrics snapshot: histograms with distribution
// summaries first, then every counter, lexically ordered.
func WriteMetrics(w io.Writer, s *obs.Snapshot) {
	if s == nil {
		return
	}
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	if len(s.Histograms) > 0 {
		p("histograms:")
		p("  %-24s %10s %10s %8s %8s %8s", "name", "count", "mean", "p50", "p90", "max")
		for _, name := range s.SortedHistogramNames() {
			h := s.Histograms[name]
			p("  %-24s %10d %10.1f %8d %8d %8d",
				name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Max)
		}
	}
	if len(s.Counters) > 0 {
		p("counters:")
		for _, name := range s.SortedCounterNames() {
			p("  %-32s %12d", name, s.Counters[name])
		}
	}
}

// WriteSchemeSummaries renders the per-scheme stall/gap summary table: the
// auth-latency and decrypt→auth gap distributions plus the per-control-point
// stall-cycle breakdown, one row per policy row of a sweep, in row order.
func WriteSchemeSummaries(w io.Writer, sums []campaign.PolicyMetrics) {
	if len(sums) == 0 {
		return
	}
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	p("per-policy observability summary:")
	p("  %-30s %5s | %21s | %21s | %30s", "", "", "auth latency (cyc)", "decrypt→auth gap", "stall cycles")
	p("  %-30s %5s | %6s %6s %7s | %6s %6s %7s | %9s %9s %9s",
		"policy", "cells", "mean", "p90", "max", "mean", "p90", "max",
		"commit", "issue", "sb-full")
	p("  %s", strings.Repeat("-", 122))
	for _, s := range sums {
		lat := s.Snap.Histograms[obs.MetricAuthLatency]
		gap := s.Snap.Histograms[obs.MetricAuthGap]
		p("  %-30s %5d | %6.1f %6d %7d | %6.1f %6d %7d | %9d %9d %9d",
			s.Policy, s.Cells,
			lat.Mean(), lat.Quantile(0.9), lat.Max,
			gap.Mean(), gap.Quantile(0.9), gap.Max,
			s.Snap.Counters["stall.commit-auth.cycles"],
			s.Snap.Counters["stall.issue-auth.cycles"],
			s.Snap.Counters["stall.sb-full.cycles"])
	}
}
