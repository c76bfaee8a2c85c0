package obs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Histogram is a fixed-bucket histogram of uint64 samples. Bucket i counts
// samples v <= Bounds[i]; one implicit overflow bucket catches the rest.
// Fixed bounds keep observation O(log buckets), snapshots mergeable, and the
// JSON schema stable across runs.
type Histogram struct {
	Name   string
	Bounds []uint64
	Counts []uint64 // len(Bounds)+1; last = overflow
	Sum    uint64
	N      uint64
	Max    uint64
}

// NewHistogram builds a histogram over strictly increasing bounds.
func NewHistogram(name string, bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not increasing at %d", name, i))
		}
	}
	return &Histogram{
		Name:   name,
		Bounds: append([]uint64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.Bounds), func(i int) bool { return v <= h.Bounds[i] })
	h.Counts[i]++
	h.Sum += v
	h.N++
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the arithmetic mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// snapshot freezes the histogram.
func (h *Histogram) snapshot() HistSnapshot {
	return HistSnapshot{
		Bounds: append([]uint64(nil), h.Bounds...),
		Counts: append([]uint64(nil), h.Counts...),
		Sum:    h.Sum,
		Count:  h.N,
		Max:    h.Max,
	}
}

// Snapshot is the JSON-friendly frozen form of a run's metrics: named
// counters and histograms. It is what harness outcomes and campaign
// metrics carry per cell.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot is one frozen histogram.
type HistSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
	Max    uint64   `json:"max"`
}

// Mean returns the arithmetic mean of the frozen samples.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile: the bound of the first
// bucket at which the cumulative count reaches q*Count (Max for the overflow
// bucket). q outside (0,1] is clamped.
func (h HistSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) && h.Bounds[i] < h.Max {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// merge folds o into h (bounds must match — they do for same-name metrics
// produced by this package's fixed bucket sets).
func (h *HistSnapshot) merge(o HistSnapshot) error {
	if len(h.Bounds) != len(o.Bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d bounds", len(h.Bounds), len(o.Bounds))
	}
	for i, b := range h.Bounds {
		if o.Bounds[i] != b {
			return fmt.Errorf("obs: merging histograms with different bounds at %d", i)
		}
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
	h.Count += o.Count
	if o.Max > h.Max {
		h.Max = o.Max
	}
	return nil
}

// Merge folds another snapshot into this one: counters add, same-name
// histograms bucket-wise add. Used to aggregate per-cell snapshots into a
// per-scheme summary.
func (s *Snapshot) Merge(o *Snapshot) error {
	if o == nil {
		return nil
	}
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistSnapshot{}
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Histograms {
		cur, ok := s.Histograms[k]
		if !ok {
			s.Histograms[k] = HistSnapshot{
				Bounds: append([]uint64(nil), v.Bounds...),
				Counts: append([]uint64(nil), v.Counts...),
				Sum:    v.Sum, Count: v.Count, Max: v.Max,
			}
			continue
		}
		if err := cur.merge(v); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		s.Histograms[k] = cur
	}
	return nil
}

// Clone returns a deep copy of s: merging into either never reaches the
// other.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Counters: maps.Clone(s.Counters)}
	if s.Histograms != nil {
		c.Histograms = make(map[string]HistSnapshot, len(s.Histograms))
		for k, h := range s.Histograms {
			h.Bounds, h.Counts = slices.Clone(h.Bounds), slices.Clone(h.Counts)
			c.Histograms[k] = h
		}
	}
	return c
}

// SortedCounterNames returns counter names in lexical order (stable
// rendering).
func (s *Snapshot) SortedCounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SortedHistogramNames returns histogram names in lexical order.
func (s *Snapshot) SortedHistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
