// Package report renders a full post-run machine report: pipeline,
// caches, TLBs, DRAM, bus, and secure-memory statistics with derived rates.
// It is the human-readable face of a simulation result; authsim -v prints
// it.
package report

import (
	"fmt"
	"io"

	"authpoint/internal/cache"
	"authpoint/internal/sim"
)

// Write renders the report for a finished machine run.
func Write(w io.Writer, m *sim.Machine, res sim.Result) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	rate := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}

	p("run: %v after %d cycles, %d instructions (IPC %.4f)", res.Reason, res.Cycles, res.Insts, res.IPC)
	if res.SecurityFault != nil {
		p("  security exception: request #%d, line %#x, flagged at cycle %d",
			res.SecurityFault.Idx, res.SecurityFault.Addr, res.SecurityFault.Cycle)
	}
	if res.ArchFault != 0 {
		p("  architectural fault: %v at %#x", res.ArchFault, res.ArchFaultAddr)
	}

	c := res.Core
	p("pipeline:")
	p("  fetched %d  dispatched %d  issued %d  committed %d", c.Fetched, c.Dispatched, c.Issued, c.Committed)
	p("  mispredicts %d (cond accuracy %.3f)  squashed %d  store-forwards %d",
		c.Mispredicts, m.Core.Predictor().CondAccuracy(), c.Squashed, c.Forwards)
	p("  stalls: commit-on-auth %d  issue-on-auth %d  store-buffer-full %d",
		c.CommitAuthStall, c.IssueAuthStall, c.SBFullStall)

	l1i, l1d, l2 := m.MS.Caches()
	for _, e := range []struct {
		name string
		s    cache.Stats
	}{
		{"L1I", l1i.Stats()},
		{"L1D", l1d.Stats()},
		{"L2 ", l2.Stats()},
	} {
		p("cache %s: accesses %d  miss-rate %.4f  evictions %d  writebacks %d",
			e.name, e.s.Hits+e.s.Misses, rate(e.s.Misses, e.s.Hits+e.s.Misses), e.s.Evictions, e.s.Writebacks)
	}

	itlb, dtlb := m.MS.TLBs()
	ih, im := itlb.Stats()
	dh, dm := dtlb.Stats()
	p("tlb: I hits %d misses %d (%.5f miss)  D hits %d misses %d (%.5f miss)",
		ih, im, rate(im, ih+im), dh, dm, rate(dm, dh+dm))

	d := m.DRAM.Stats()
	p("dram: row-hits %d  row-empty %d  row-conflicts %d  bank-queueing %d cycles",
		d.Hits, d.Empties, d.Conflicts, d.BusyCycles)
	p("bus: busy %d cycles (%.1f%% of run)", m.Bus.BusyCycles(),
		100*rate(m.Bus.BusyCycles(), res.Cycles))

	s := res.Sec
	p("secure memory:")
	p("  fetches %d  writebacks %d  auth-requests %d  auth-failures %d",
		s.Fetches, s.Writebacks, s.AuthRequests, s.AuthFailures)
	p("  crypto: aes-blocks %d  macs %d", s.AESBlocks, s.MACs)
	if m.MS.Prefetches > 0 {
		p("  next-line prefetches: %d", m.MS.Prefetches)
	}
	if m.MS.FetchGateWait > 0 {
		p("  then-fetch bus-grant wait: %d cycles total", m.MS.FetchGateWait)
	}
	p("  counter cache: %.4f miss  (prediction %v)",
		rate(s.CtrMisses, s.CtrHits+s.CtrMisses), m.Ctrl.Config().CtrPredict)
	if s.AuthRequests > 0 {
		p("  mean decrypt->verify gap: %.1f cycles", rate(s.AuthWaitCycles, s.AuthRequests))
	}
	if s.Fetches > 0 {
		// Per-fetch rather than per-request: the realized gap cost spread
		// over every external fetch, including unauthenticated ones.
		p("  realized gap per fetch: %.1f cycles", rate(s.AuthWaitCycles, s.Fetches))
	}
	if m.Ctrl.Config().UseTree {
		p("  tree: node fetches %d  node-cache hits %d", s.TreeNodeFetch, s.TreeCacheHits)
	}
	if m.Ctrl.Config().Remap {
		p("  remap cache: hits %d misses %d (%.4f miss)",
			s.RemapHits, s.RemapMisses, rate(s.RemapMisses, s.RemapHits+s.RemapMisses))
	}
}
