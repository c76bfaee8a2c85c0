// Fast-path perf counters: the simulator's self-observability surface.
//
// PR 7's fast-path machinery (µop cache, idle-cycle fast-forward, wakeup
// lists, occupancy bitmaps) made the simulator ~6x faster but opaque: nothing
// recorded hit rates, skipped cycles, or which component bounded each jump.
// Perf is the cheap counter block those mechanisms increment. It follows the
// same discipline as Sink: components hold a *Perf and guard every increment
// site with a nil check, so a machine without perf counting attached pays
// only an untaken branch (pinned by BenchmarkRunFast staying within noise of
// the counter-free baseline).
//
// Unlike the event-driven Hub metrics, Perf fields are plain uint64s bumped
// inline — no Event allocation, no interface call — because several sites
// (fetch, broadcast, issue, disambiguation) run once or more per simulated
// cycle.

package obs

// SkipBound identifies which component's NextEventAt bounded an idle-cycle
// fast-forward jump — the attribution of every SkipTo to the resource the
// machine was actually waiting on.
type SkipBound uint8

// Skip bounds, in the order Machine.Run folds the components' NextEventAt
// values (first-wins on ties, so attribution is deterministic).
const (
	BoundCore SkipBound = iota
	BoundMemsys
	BoundBus
	BoundDram
	BoundSecmem
	BoundWatchdog
	NumSkipBounds
)

func (b SkipBound) String() string {
	switch b {
	case BoundCore:
		return "core"
	case BoundMemsys:
		return "memsys"
	case BoundBus:
		return "bus"
	case BoundDram:
		return "dram"
	case BoundSecmem:
		return "secmem"
	case BoundWatchdog:
		return "watchdog"
	}
	return "?"
}

// Perf is the fast-path perf-counter block. One machine owns one Perf; it is
// not safe for concurrent use. A nil *Perf disables all counting.
type Perf struct {
	// µop cache (pipeline fetch): Lookup hits, Lookup misses with a cache
	// attached (tampered/overwritten text or wild PC), and decodes with no
	// cache at all (DisableFastPath).
	UopHits    uint64
	UopMisses  uint64
	UopNoCache uint64

	// Idle-cycle fast-forward: SkipTo jumps, total cycles skipped, and the
	// skipped cycles attributed to whichever component's NextEventAt bounded
	// each jump.
	SkipCalls       uint64
	SkipCycles      uint64
	SkipBoundCycles [NumSkipBounds]uint64

	// Wakeup lists (writeback broadcast): broadcasts performed, consumer
	// records visited, records found stale (squashed or reused slots), and
	// operands actually woken.
	Broadcasts     uint64
	ConsumerVisits uint64
	StaleWakes     uint64
	Wakes          uint64

	// Ready-mask issue scan: RUU entries the issue stage visited (entries
	// it could act on, up to the issue-width cut-off).
	IssueVisits uint64

	// earliestDone watermark: writeback scans performed, and the subset that
	// were full rescans after a squash invalidated the watermark (squashAfter
	// sets it to 0 = "unknown, recompute").
	WritebackScans   uint64
	WatermarkRescans uint64

	// Store-bitmap memory disambiguation: load issues that short-circuited
	// the older-store scan, because the window held no stores or the store
	// filter proved the scan would find none to forward from and none that
	// blocks the load; scans actually performed; and store entries visited
	// across them.
	DisambShortCircuits uint64
	DisambScans         uint64
	DisambVisits        uint64
}

// AddTo folds the counters into a snapshot (adding to any values already
// there, so per-cell Perf blocks merge like every other snapshot counter).
// Zero-valued fields are still recorded: the counter set is part of the
// snapshot schema, and "0 misses" is a result, not an absence. The name
// table here is the single naming contract between Perf and every renderer.
func (p *Perf) AddTo(s *Snapshot) {
	if p == nil || s == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	c := s.Counters
	c["fastpath.uop.hits"] += p.UopHits
	c["fastpath.uop.misses"] += p.UopMisses
	c["fastpath.uop.nocache"] += p.UopNoCache
	c["fastpath.skip.calls"] += p.SkipCalls
	c["fastpath.skip.cycles"] += p.SkipCycles
	c["fastpath.wakeup.broadcasts"] += p.Broadcasts
	c["fastpath.wakeup.visits"] += p.ConsumerVisits
	c["fastpath.wakeup.stale"] += p.StaleWakes
	c["fastpath.wakeup.wakes"] += p.Wakes
	c["fastpath.issue.visits"] += p.IssueVisits
	c["fastpath.writeback.scans"] += p.WritebackScans
	c["fastpath.writeback.rescans"] += p.WatermarkRescans
	c["fastpath.disamb.shortcircuit"] += p.DisambShortCircuits
	c["fastpath.disamb.scans"] += p.DisambScans
	c["fastpath.disamb.visits"] += p.DisambVisits
	for b := SkipBound(0); b < NumSkipBounds; b++ {
		if p.SkipBoundCycles[b] > 0 {
			c["fastpath.skip.bound."+b.String()+".cycles"] += p.SkipBoundCycles[b]
		}
	}
}
