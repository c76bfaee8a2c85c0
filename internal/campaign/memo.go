package campaign

import (
	"sync"
	"sync/atomic"
)

// Memo memoizes one value per key across the cells of a campaign: the work
// a cross campaign would otherwise repeat for every policy of a seed, such
// as generating and assembling the seed's program or running its in-order
// oracle. Concurrent lookups of one key build its value once (singleflight:
// later callers wait for the first). Past its cap the memo forgets the
// oldest-inserted key first, so a memo capped below the number of keys its
// cells look up serves a key again only while fewer than cap other keys
// have been inserted since; a memo capped at Distinct(cells) serves every
// cell, in any order. Values are shared between the cells that look them
// up, so they must not be mutated after build returns. Safe for concurrent
// use.
type Memo[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	m      map[K]*memoEntry[V]
	fifo   []K
	hits   uint64
	misses uint64
}

// memoEntry is one memo slot; ready closes when v is set.
type memoEntry[V any] struct {
	ready chan struct{}
	v     V
}

// DefaultMemoCap bounds a memo built with no cap: room for the keys of
// 128 seeds in flight. A campaign that knows its cells sizes its memos to
// their distinct keys instead (see Distinct), so that no key is evicted
// before its last cell.
const DefaultMemoCap = 128

// NewMemo builds a memo holding at most capacity keys (<=0 means
// DefaultMemoCap).
func NewMemo[K comparable, V any](capacity int) *Memo[K, V] {
	if capacity <= 0 {
		capacity = DefaultMemoCap
	}
	return &Memo[K, V]{max: capacity, m: make(map[K]*memoEntry[V])}
}

// Get returns the value memoized for key, calling build to make it on a
// miss. A hit is any lookup that did not call build, including one that
// waited for another caller's build of the same key.
func (mm *Memo[K, V]) Get(key K, build func() V) V {
	mm.mu.Lock()
	if e, ok := mm.m[key]; ok {
		mm.hits++
		mm.mu.Unlock()
		<-e.ready
		return e.v
	}
	mm.misses++
	e := &memoEntry[V]{ready: make(chan struct{})}
	mm.m[key] = e
	mm.fifo = append(mm.fifo, key)
	for len(mm.fifo) > mm.max {
		// Evicting an entry still being built is fine: its waiters hold the
		// entry, only the map forgets it.
		delete(mm.m, mm.fifo[0])
		mm.fifo = mm.fifo[1:]
	}
	mm.mu.Unlock()

	e.v = build()
	close(e.ready)
	return e.v
}

// Hits and Misses report the memo's lifetime lookup counts.
func (mm *Memo[K, V]) Hits() uint64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.hits
}

func (mm *Memo[K, V]) Misses() uint64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.misses
}

// Distinct counts the distinct keys of cells: the cap at which a memo on
// that key serves every cell after the first of each key, in any cell
// order. Fewer keys than cells means some cells repeat a key.
func Distinct[C any, K comparable](cells []C, key func(C) K) int {
	seen := make(map[K]struct{}, len(cells))
	for _, c := range cells {
		seen[key(c)] = struct{}{}
	}
	return len(seen)
}

// Countdown counts, per key, the cells of a campaign that have not yet
// finished, so that the last cell of a key can drop what the cells of that
// key shared. Its map is filled once, so it is safe for concurrent use.
type Countdown[K comparable] struct {
	left map[K]*atomic.Int64
}

// NewCountdown counts the cells of each key.
func NewCountdown[C any, K comparable](cells []C, key func(C) K) Countdown[K] {
	left := make(map[K]*atomic.Int64)
	for _, c := range cells {
		n := left[key(c)]
		if n == nil {
			n = new(atomic.Int64)
			left[key(c)] = n
		}
		n.Add(1)
	}
	return Countdown[K]{left: left}
}

// Done counts one finished cell of key k and reports whether it was the
// last. A cell checked again after its key's last, such as a prior finding
// re-checked on resume, is never the last.
func (c Countdown[K]) Done(k K) bool {
	n := c.left[k]
	return n != nil && n.Add(-1) == 0
}

// Siblings holds the values that cells share with their siblings, the
// other cells of one key: the first value put for a key is kept until it is
// dropped. Its map is released once it holds nothing, so a seed whose
// shared values were all dropped keeps no memory for them. The zero value
// is empty and ready; safe for concurrent use.
type Siblings[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get returns the value kept for k.
func (s *Siblings[K, V]) Get(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

// Put keeps v for k, unless a value is kept for k already.
func (s *Siblings[K, V]) Put(k K, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok {
		return
	}
	if s.m == nil {
		s.m = make(map[K]V)
	}
	s.m[k] = v
}

// Drop forgets the value kept for k.
func (s *Siblings[K, V]) Drop(k K) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, k)
	if len(s.m) == 0 {
		s.m = nil
	}
}

// Len returns the number of values kept.
func (s *Siblings[K, V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
