package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPerfAddToNames(t *testing.T) {
	p := &Perf{
		UopHits: 10, UopMisses: 2, UopNoCache: 1,
		SkipCalls: 5, SkipCycles: 500,
		Broadcasts: 7, ConsumerVisits: 20, StaleWakes: 3, Wakes: 17,
		IssueVisits: 12, WritebackScans: 9, WatermarkRescans: 4,
		DisambShortCircuits: 6, DisambScans: 2, DisambVisits: 11,
	}
	p.SkipBoundCycles[BoundDram] = 400
	p.SkipBoundCycles[BoundSecmem] = 100

	s := &Snapshot{}
	p.AddTo(s)
	want := map[string]uint64{
		"fastpath.uop.hits":                 10,
		"fastpath.uop.misses":               2,
		"fastpath.uop.nocache":              1,
		"fastpath.skip.calls":               5,
		"fastpath.skip.cycles":              500,
		"fastpath.wakeup.broadcasts":        7,
		"fastpath.wakeup.visits":            20,
		"fastpath.wakeup.stale":             3,
		"fastpath.wakeup.wakes":             17,
		"fastpath.issue.visits":             12,
		"fastpath.writeback.scans":          9,
		"fastpath.writeback.rescans":        4,
		"fastpath.disamb.shortcircuit":      6,
		"fastpath.disamb.scans":             2,
		"fastpath.disamb.visits":            11,
		"fastpath.skip.bound.dram.cycles":   400,
		"fastpath.skip.bound.secmem.cycles": 100,
	}
	if !reflect.DeepEqual(s.Counters, want) {
		t.Fatalf("counters:\ngot  %v\nwant %v", s.Counters, want)
	}

	// AddTo folds — a second fold doubles every counter.
	p.AddTo(s)
	for name, w := range want {
		if s.Counters[name] != 2*w {
			t.Errorf("%s after second AddTo = %d, want %d", name, s.Counters[name], 2*w)
		}
	}

	// Nil receiver and nil snapshot are no-ops.
	var nilP *Perf
	nilP.AddTo(s)
	p.AddTo(nil)
}

func TestPerfAddToNilBoundsOmitted(t *testing.T) {
	s := &Snapshot{}
	(&Perf{SkipCalls: 1}).AddTo(s)
	for name := range s.Counters {
		if len(name) > len("fastpath.skip.bound.") && name[:len("fastpath.skip.bound.")] == "fastpath.skip.bound." {
			t.Errorf("zero-valued bound counter %s recorded", name)
		}
	}
}

// randomSnapshot builds a snapshot with a random subset of counters and
// histograms over a fixed schema (shared bounds, as all sweep snapshots have).
func randomSnapshot(rng *rand.Rand) *Snapshot {
	s := &Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistSnapshot{}}
	counterNames := []string{"a", "b", "c", "fastpath.skip.cycles"}
	for _, n := range counterNames {
		if rng.Intn(2) == 0 {
			s.Counters[n] = uint64(rng.Intn(1000))
		}
	}
	bounds := []uint64{10, 100}
	for _, n := range []string{"h1", "h2"} {
		if rng.Intn(2) == 0 {
			h := HistSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
			for i := range h.Counts {
				h.Counts[i] = uint64(rng.Intn(50))
				h.Count += h.Counts[i]
			}
			h.Sum = uint64(rng.Intn(10000))
			h.Max = uint64(rng.Intn(500))
			s.Histograms[n] = h
		}
	}
	return s
}

// cloneSnapshot deep-copies a snapshot so each merge order starts fresh.
func cloneSnapshot(s *Snapshot) *Snapshot {
	c := &Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistSnapshot{}}
	for k, v := range s.Counters {
		c.Counters[k] = v
	}
	for k, h := range s.Histograms {
		h.Bounds = append([]uint64(nil), h.Bounds...)
		h.Counts = append([]uint64(nil), h.Counts...)
		c.Histograms[k] = h
	}
	return c
}

// TestSnapshotMergeOrderIndependent is the determinism property behind
// parallel sweeps folding per-cell snapshots in completion order: merging the
// same snapshot multiset in any order must produce the same aggregate.
func TestSnapshotMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		parts := make([]*Snapshot, 2+rng.Intn(5))
		for i := range parts {
			parts[i] = randomSnapshot(rng)
		}

		mergeAll := func(order []int) *Snapshot {
			acc := &Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistSnapshot{}}
			for _, i := range order {
				if err := acc.Merge(cloneSnapshot(parts[i])); err != nil {
					t.Fatalf("trial %d: merge: %v", trial, err)
				}
			}
			return acc
		}

		forward := make([]int, len(parts))
		for i := range forward {
			forward[i] = i
		}
		ref := mergeAll(forward)
		for perm := 0; perm < 5; perm++ {
			order := append([]int(nil), forward...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			got := mergeAll(order)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d: merge order %v diverged:\ngot  %+v\nwant %+v", trial, order, got, ref)
			}
		}
	}
}
