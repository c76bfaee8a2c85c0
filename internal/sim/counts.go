package sim

import (
	"authpoint/internal/cache"
	"authpoint/internal/obs"
)

// Counts is the machine's count vector, keyed by metric name: every count a
// run reports that one of its components already keeps — the core's
// pipeline.Stats, the controller's secmem.Stats, the memory system's
// fetch-gate wait, the bus's transactions and the hits and misses of the
// five caches. Each count has exactly one source: the hub derives only what
// events alone show, and obs.Perf counts the fast-path machinery. A
// window's counts are the difference of two reads.
type Counts map[string]uint64

// Counts reads the count vector from the components, now.
func (m *Machine) Counts() Counts {
	st, sec := m.Core.Stats(), m.Ctrl.Stats()
	c := Counts{
		"pipe.fetch":                 st.Fetched,
		"pipe.dispatch":              st.Dispatched,
		"pipe.issue":                 st.Issued,
		"pipe.commit":                st.Committed,
		"pipe.squash":                st.Squashed,
		"auth.requests":              sec.AuthRequests,
		"auth.failures":              sec.AuthFailures,
		"sec.fetches":                sec.Fetches,
		"sec.writebacks":             sec.Writebacks,
		"sec.fetch_gate_wait_cycles": m.MS.FetchGateWait,
		"bus.txns":                   m.Bus.Txns(),
	}
	stalls := [obs.NumStallReasons]uint64{
		obs.StallCommitAuth: st.CommitAuthStall,
		obs.StallIssueAuth:  st.IssueAuthStall,
		obs.StallSBFull:     st.SBFullStall,
	}
	for r, v := range stalls {
		c["stall."+obs.StallReason(r).String()+".cycles"] = v
	}
	for _, k := range m.caches() {
		var s cache.Stats
		if k.c != nil {
			s = k.c.Stats()
		}
		c[k.name+".hits"], c[k.name+".misses"] = s.Hits, s.Misses
	}
	return c
}

// namedCache is one of the machine's caches under its metric-name prefix.
type namedCache struct {
	name string
	c    *cache.Cache // nil when the configuration has none
}

// caches lists the machine's five caches.
func (m *Machine) caches() [5]namedCache {
	l1i, l1d, l2 := m.MS.Caches()
	ctr, tree := m.Ctrl.Caches()
	return [5]namedCache{
		{"cache." + obs.TrackL1I.String(), l1i},
		{"cache." + obs.TrackL1D.String(), l1d},
		{"cache." + obs.TrackL2.String(), l2},
		{"cache." + obs.TrackCtrCache.String(), ctr},
		{"cache." + obs.TrackTreeCache.String(), tree},
	}
}

// Metrics returns the run's metrics snapshot: hub's event-derived metrics
// (hub must have metrics on), the counts since base (nil for the whole
// run) and the perf block, if enabled. A cache no lookup reached in the
// window, and a fetch-gate wait of zero, are left out: a configuration
// without that cache or gate reports no such names.
func (m *Machine) Metrics(hub *obs.Hub, base Counts) *obs.Snapshot {
	s := hub.Snapshot()
	for name, v := range m.Counts() {
		s.Counters[name] = v - base[name]
	}
	for _, k := range m.caches() {
		if s.Counters[k.name+".hits"]+s.Counters[k.name+".misses"] == 0 {
			delete(s.Counters, k.name+".hits")
			delete(s.Counters, k.name+".misses")
		}
	}
	if s.Counters["sec.fetch_gate_wait_cycles"] == 0 {
		delete(s.Counters, "sec.fetch_gate_wait_cycles")
	}
	m.perf.AddTo(s)
	return s
}
