package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestHistogramObserveMeanQuantile(t *testing.T) {
	h := NewHistogram("t", []uint64{10, 20, 40})
	for _, v := range []uint64{5, 10, 15, 35, 100} {
		h.Observe(v)
	}
	if h.N != 5 || h.Sum != 165 || h.Max != 100 {
		t.Fatalf("n=%d sum=%d max=%d", h.N, h.Sum, h.Max)
	}
	// Buckets: <=10: {5,10}=2, <=20: {15}=1, <=40: {35}=1, overflow: {100}=1.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if got := h.Mean(); got != 33 {
		t.Fatalf("mean = %v", got)
	}
	s := HistSnapshot{Bounds: h.Bounds, Counts: h.Counts, Sum: h.Sum, Count: h.N, Max: h.Max}
	if q := s.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %d, want 10 (2/5 cumulative at first bound reaches ceil)", q)
	}
	if q := s.Quantile(1.0); q != 100 {
		t.Fatalf("p100 = %d, want Max 100", q)
	}
}

func TestSnapshotMerge(t *testing.T) {
	h := NewHistogram("h", []uint64{1, 2})
	h.Observe(2)
	s1 := &Snapshot{Counters: map[string]uint64{"a": 4}, Histograms: map[string]HistSnapshot{"h": h.snapshot()}}

	h2 := NewHistogram("h", []uint64{1, 2})
	h2.Observe(5)
	s2 := &Snapshot{Counters: map[string]uint64{"a": 6, "b": 1}, Histograms: map[string]HistSnapshot{"h": h2.snapshot()}}

	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	if s1.Counters["a"] != 10 || s1.Counters["b"] != 1 {
		t.Fatalf("merged counters %v", s1.Counters)
	}
	got := s1.Histograms["h"]
	if got.Count != 2 || got.Sum != 7 || got.Max != 5 || got.Counts[1] != 1 || got.Counts[2] != 1 {
		t.Fatalf("merged hist %+v", got)
	}
	// Merging into an empty snapshot copies, so the source stays unaliased.
	var empty Snapshot
	if err := empty.Merge(s2); err != nil {
		t.Fatal(err)
	}
	empty.Histograms["h"].Counts[2]++
	if s2.Histograms["h"].Counts[2] != 1 {
		t.Fatal("merge into an empty snapshot aliased the source's buckets")
	}
	// Mismatched bounds must refuse.
	bad := &Snapshot{Histograms: map[string]HistSnapshot{"h": {Bounds: []uint64{9}, Counts: []uint64{0, 0}}}}
	if err := s1.Merge(bad); err == nil {
		t.Fatal("merge with mismatched bounds succeeded")
	}
}

// TestSnapshotClone pins that a clone equals its source and shares none of
// its maps or buckets: merging into the clone, as a ledger record does with
// a cell's second run, leaves the source as it was.
func TestSnapshotClone(t *testing.T) {
	h := NewHistogram("h", []uint64{1, 2})
	h.Observe(2)
	src := &Snapshot{Counters: map[string]uint64{"a": 4}, Histograms: map[string]HistSnapshot{"h": h.snapshot()}}
	c := src.Clone()
	if !reflect.DeepEqual(c, src) {
		t.Fatalf("clone %+v, source %+v", c, src)
	}
	if err := c.Merge(c.Clone()); err != nil {
		t.Fatal(err)
	}
	if src.Counters["a"] != 4 || src.Histograms["h"].Count != 1 || src.Histograms["h"].Counts[1] != 1 {
		t.Fatalf("merging into the clone reached the source: %+v", src)
	}
	if empty := (&Snapshot{}).Clone(); empty.Counters != nil || empty.Histograms != nil {
		t.Fatalf("clone of an empty snapshot %+v", empty)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i), Kind: EvCommit})
	}
	ev := tr.Events()
	if len(ev) != 4 || tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", len(ev), tr.Total(), tr.Dropped())
	}
	for i, e := range ev {
		if e.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle %d, want %d (oldest-first order)", i, e.Cycle, 6+i)
		}
	}
}

func TestTraceJSONExportAndValidate(t *testing.T) {
	tr := NewTracer(0)
	// Out-of-order emission (completion stamped ahead of time) must still
	// export with monotonic timestamps.
	tr.Emit(Event{Cycle: 50, Kind: EvAuthRequest, Addr: 0x1000, A: 1, B: 200})
	tr.Emit(Event{Cycle: 200, Kind: EvAuthComplete, Addr: 0x1000, A: 50, B: 120})
	tr.Emit(Event{Cycle: 10, Kind: EvFetch, Track: TrackCore, Addr: 0x400})
	tr.Emit(Event{Cycle: 60, Kind: EvStallBegin, Track: TrackCore, A: uint64(StallCommitAuth)})
	tr.Emit(Event{Cycle: 90, Kind: EvStallEnd, Track: TrackCore, A: uint64(StallCommitAuth)})
	tr.Emit(Event{Cycle: 30, Kind: EvBusTxn, Track: TrackBus, Addr: 0x1000, A: 0, B: 45})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v\n%s", err, buf.String())
	}

	// The decrypt→auth gap span must be derived from the complete event.
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	foundGap := false
	for _, e := range f.TraceEvents {
		if e.Name == "gap" && e.Ph == "X" {
			foundGap = true
			if e.Ts != 120 || e.Dur != 80 {
				t.Fatalf("gap span ts=%d dur=%d, want 120/80", e.Ts, e.Dur)
			}
		}
	}
	if !foundGap {
		t.Fatal("no decrypt→auth gap span exported")
	}
}

// Regression: span events whose recorded completion precedes their start
// (auth request whose completion was stamped earlier, bus transaction
// recorded conservatively) must export a zero duration — not wrap the
// uint64 subtraction into an ~1.8e19 "duration" that corrupts the timeline.
func TestTraceSpanUnderflowClamped(t *testing.T) {
	tr := NewTracer(0)
	tr.Emit(Event{Cycle: 100, Kind: EvAuthRequest, Addr: 0x40, A: 1, B: 60})
	tr.Emit(Event{Cycle: 120, Kind: EvBusTxn, Track: TrackBus, Addr: 0x40, A: 0, B: 90})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("trace with underflowing spans does not validate: %v\n%s", err, buf.String())
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Dur != 0 {
			t.Errorf("%s span exported dur %d, want 0 (end precedes start)", e.Name, e.Dur)
		}
	}
	if spans != 2 {
		t.Fatalf("exported %d spans, want 2", spans)
	}
}

func TestValidateTraceJSONRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{",
		"empty":         `{"traceEvents":[]}`,
		"missing name":  `{"traceEvents":[{"ph":"i","ts":1}]}`,
		"non-monotonic": `{"traceEvents":[{"name":"a","ph":"i","ts":5},{"name":"b","ph":"i","ts":4}]}`,
	}
	for name, data := range cases {
		if err := ValidateTraceJSON([]byte(data)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestHubDerivesAuthMetrics(t *testing.T) {
	h := NewHub(nil, true)
	// Two requests: first completes at 100 (arrive 20, plain-ready 40),
	// second overlaps it (arrive 30, done 180, plain-ready 170).
	h.Emit(Event{Cycle: 20, Kind: EvAuthRequest, A: 1, B: 100})
	h.Emit(Event{Cycle: 30, Kind: EvAuthRequest, A: 2, B: 180})
	h.Emit(Event{Cycle: 100, Kind: EvAuthComplete, A: 20, B: 40})
	h.Emit(Event{Cycle: 180, Kind: EvAuthComplete, A: 30, B: 170})
	s := h.Snapshot()
	lat := s.Histograms[MetricAuthLatency]
	if lat.Count != 2 || lat.Sum != (100-20)+(180-30) {
		t.Fatalf("latency hist %+v", lat)
	}
	gap := s.Histograms[MetricAuthGap]
	if gap.Count != 2 || gap.Sum != (100-40)+(180-170) {
		t.Fatalf("gap hist %+v", gap)
	}
	occ := s.Histograms[MetricAuthOccupancy]
	// First enqueue sees depth 1, second (first still outstanding) depth 2.
	if occ.Count != 2 || occ.Sum != 3 {
		t.Fatalf("occupancy hist %+v", occ)
	}
}

// The hub counts stall intervals as they open; how many cycles they last is
// the core's own count (pipeline.Stats), not the hub's.
func TestHubStallAccounting(t *testing.T) {
	h := NewHub(nil, true)
	h.Emit(Event{Cycle: 10, Kind: EvStallBegin, A: uint64(StallCommitAuth)})
	h.Emit(Event{Cycle: 35, Kind: EvStallEnd, A: uint64(StallCommitAuth)})
	h.Emit(Event{Cycle: 40, Kind: EvStallBegin, A: uint64(StallCommitAuth)})
	h.Emit(Event{Cycle: 45, Kind: EvStallBegin, A: uint64(StallSBFull)})
	s := h.Snapshot()
	want := map[string]uint64{
		"stall.commit-auth.events": 2,
		"stall.issue-auth.events":  0,
		"stall.sb-full.events":     1,
	}
	if !reflect.DeepEqual(s.Counters, want) {
		t.Fatalf("counters %v, want %v", s.Counters, want)
	}
}

func TestHubTraceOnly(t *testing.T) {
	h := NewHub(NewTracer(8), false)
	h.Emit(Event{Cycle: 1, Kind: EvCommit})
	if h.Snapshot() != nil {
		t.Fatal("metrics-off hub returned a snapshot")
	}
	if len(h.Tracer().Events()) != 1 {
		t.Fatal("tracer did not record")
	}
}
