package secmem

import "sync"

// memo is a process-wide cache of a pure function of its key, shared by
// every controller: a hit returns exactly what a miss computes, whichever
// controller, test or goroutine filled it. A value is never modified once
// the memo holds it; controllers copy from it and never alias it.
//
// The memo holds at most capB bytes, each value charged the size it was put
// with. It makes room for a new value by evicting the least recently used
// ones, and never holds a value larger than capB.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	bytes   int // charged to held entries, at most capB
	capB    int
	tick    uint64 // advances on every get hit and put: the recency order
}

type memoEntry[V any] struct {
	v    V
	size int
	used uint64 // tick of the last get or put
}

func newMemo[K comparable, V any](capB int) *memo[K, V] {
	return &memo[K, V]{entries: map[K]*memoEntry[V]{}, capB: capB}
}

// get returns k's value and whether the memo holds one.
func (m *memo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	m.tick++
	e.used = m.tick
	return e.v, true
}

// put holds v, of the given size, as k's value and returns it, unless the
// memo already holds a value for k: concurrent misses on one key may each
// compute the value, and put then returns the first one held. A value
// larger than the cap is returned but not held.
func (m *memo[K, V]) put(k K, v V, size int) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	if e, ok := m.entries[k]; ok {
		e.used = m.tick
		return e.v
	}
	if size > m.capB {
		return v
	}
	for m.bytes+size > m.capB {
		m.evictLRU()
	}
	m.entries[k] = &memoEntry[V]{v: v, size: size, used: m.tick}
	m.bytes += size
	return v
}

// evictLRU drops the least recently used entry. The memo holds a few
// hundred entries at most, so a scan stands in for a recency list.
func (m *memo[K, V]) evictLRU() {
	var lru K
	var oldest *memoEntry[V]
	for k, e := range m.entries {
		if oldest == nil || e.used < oldest.used {
			lru, oldest = k, e
		}
	}
	delete(m.entries, lru)
	m.bytes -= oldest.size
}
