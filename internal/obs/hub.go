package obs

// Bucket sets for the standard histograms. Cycle-valued buckets are sized
// around the reference crypto latencies (80-cycle decrypt, 74-cycle MAC) so
// the interesting structure — sub-MAC-latency gaps vs queueing pile-ups —
// lands in distinct buckets.
var (
	// CycleBuckets bound cycle-valued distributions (auth latency,
	// decrypt→auth gap).
	CycleBuckets = []uint64{0, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 160,
		192, 256, 384, 512, 768, 1024, 2048, 4096, 8192}
	// OccupancyBuckets bound the auth-queue depth distribution.
	OccupancyBuckets = []uint64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
)

// Metric names produced by the Hub. Exported so renderers and tests don't
// drift from the emitter.
const (
	MetricAuthLatency   = "auth.latency"         // enqueue→complete, cycles
	MetricAuthGap       = "auth.gap"             // decrypt-ready→auth-done, cycles
	MetricAuthOccupancy = "auth.queue_occupancy" // queue depth at each enqueue
	MetricSkipLen       = "fastforward.skip_len" // cycles per fast-forward jump
)

// Hub is the standard Sink: it fans events into an optional ring Tracer and
// derives the metrics that only the event stream shows — the auth-latency,
// decrypt→auth-gap, queue-occupancy and fast-forward skip-length
// histograms, and how many stall intervals opened per reason. Every count
// a component keeps itself (commits, fetches, cache hits, stall cycles, …)
// is read from that component, not re-derived here (see sim.Machine.Counts).
// A Hub observes exactly one machine and is not safe for concurrent use.
type Hub struct {
	tracer *Tracer

	// The histograms are nil when metrics are off.
	authLat *Histogram
	authGap *Histogram
	authOcc *Histogram
	skipLen *Histogram

	// outstanding holds the completion cycles of enqueued-but-unfinished
	// auth requests. The queue completes strictly in order, so a FIFO
	// suffices; outHead indexes the logical front so draining never
	// reslices (the backing array is compacted in place and reused — the
	// steady-state hot loop must not allocate even with a hub attached).
	outstanding []uint64
	outHead     int

	stallEvents [NumStallReasons]uint64
}

// NewHub builds a hub. tracer may be nil (metrics only); metrics may be
// false (trace only).
func NewHub(tracer *Tracer, metrics bool) *Hub {
	h := &Hub{tracer: tracer}
	if metrics {
		h.authLat = NewHistogram(MetricAuthLatency, CycleBuckets)
		h.authGap = NewHistogram(MetricAuthGap, CycleBuckets)
		h.authOcc = NewHistogram(MetricAuthOccupancy, OccupancyBuckets)
		h.skipLen = NewHistogram(MetricSkipLen, CycleBuckets)
	}
	return h
}

// Tracer returns the hub's tracer (nil when tracing is off).
func (h *Hub) Tracer() *Tracer { return h.tracer }

// Emit implements Sink.
func (h *Hub) Emit(e Event) {
	if h.tracer != nil {
		h.tracer.Emit(e)
	}
	if h.authLat == nil {
		return
	}
	switch e.Kind {
	case EvAuthRequest:
		// Occupancy at enqueue: drop the requests already done by now.
		for h.outHead < len(h.outstanding) && h.outstanding[h.outHead] <= e.Cycle {
			h.outHead++
		}
		if h.outHead == len(h.outstanding) {
			h.outstanding = h.outstanding[:0]
			h.outHead = 0
		} else if h.outHead > cap(h.outstanding)/2 {
			// Compact in place so the backing array is reused instead of
			// growing without bound as the head advances.
			n := copy(h.outstanding, h.outstanding[h.outHead:])
			h.outstanding = h.outstanding[:n]
			h.outHead = 0
		}
		h.outstanding = append(h.outstanding, e.B)
		h.authOcc.Observe(uint64(len(h.outstanding) - h.outHead))
	case EvAuthComplete:
		h.authLat.Observe(e.Cycle - e.A)
		gap := uint64(0)
		if e.Cycle > e.B {
			gap = e.Cycle - e.B
		}
		h.authGap.Observe(gap)
	case EvStallBegin:
		h.stallEvents[e.A]++
	case EvSkip:
		h.skipLen.Observe(e.A)
	}
}

// Snapshot freezes the metrics (nil when the hub has metrics disabled): the
// four histograms and a stall.<reason>.events counter per stall reason.
func (h *Hub) Snapshot() *Snapshot {
	if h.authLat == nil {
		return nil
	}
	s := &Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistSnapshot{}}
	for _, hist := range []*Histogram{h.authLat, h.authGap, h.authOcc, h.skipLen} {
		s.Histograms[hist.Name] = hist.snapshot()
	}
	for r, n := range h.stallEvents {
		s.Counters["stall."+StallReason(r).String()+".events"] = n
	}
	return s
}
