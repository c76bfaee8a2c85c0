package campaign

import "sync"

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
