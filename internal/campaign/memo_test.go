package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoConcurrentBuildsOnce pins the memo's singleflight: eight
// goroutines looking up overlapping seeds build each seed's value once, and
// every lookup gets that one value.
func TestMemoConcurrentBuildsOnce(t *testing.T) {
	const workers, span, seeds = 8, 16, 8 + 16 - 1
	memo := NewMemo[int64, *int64](seeds)
	var builds [seeds]atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([][]*int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for s := int64(w); s < int64(w+span); s++ {
				got[w] = append(got[w], memo.Get(s, func() *int64 {
					builds[s].Add(1)
					runtime.Gosched() // let other lookups find the build in flight
					v := s * s
					return &v
				}))
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for s := range builds {
		if n := builds[s].Load(); n != 1 {
			t.Errorf("seed %d built %d times", s, n)
		}
	}
	first := map[int64]*int64{}
	for w := range got {
		for i, v := range got[w] {
			s := int64(w + i)
			if *v != s*s {
				t.Fatalf("worker %d got %d for seed %d", w, *v, s)
			}
			if p, ok := first[s]; ok && p != v {
				t.Fatalf("seed %d: workers got different values", s)
			}
			first[s] = v
		}
	}
	if memo.Misses() != seeds || memo.Hits() != workers*span-seeds {
		t.Fatalf("hits=%d misses=%d, want %d and %d", memo.Hits(), memo.Misses(), workers*span-seeds, seeds)
	}
}

// TestMemoFIFOEviction pins the cap: past it the memo forgets the
// oldest-inserted key first, however recently that key was looked up, and
// builds it again on its next lookup.
func TestMemoFIFOEviction(t *testing.T) {
	memo := NewMemo[int, int](2)
	builds := 0
	get := func(k int) int {
		return memo.Get(k, func() int { builds++; return 10 * k })
	}
	for _, k := range []int{1, 2, 1, 3} { // 1 is hit once, then 3 evicts it
		if v := get(k); v != 10*k {
			t.Fatalf("key %d = %d", k, v)
		}
	}
	if builds != 3 || memo.Hits() != 1 {
		t.Fatalf("builds=%d hits=%d, want 3 and 1", builds, memo.Hits())
	}
	get(2) // still held
	get(1) // evicted: built again, evicting 2
	get(3)
	if builds != 4 || memo.Hits() != 3 || memo.Misses() != 4 {
		t.Fatalf("builds=%d hits=%d misses=%d, want 4, 3 and 4", builds, memo.Hits(), memo.Misses())
	}
}

// TestDistinct pins the count that sizes a campaign's seed memos and
// decides whether it attaches an oracle memo.
func TestDistinct(t *testing.T) {
	id := func(k int) int { return k }
	for _, tc := range []struct {
		keys []int
		want int
	}{
		{nil, 0},
		{[]int{1, 2, 3}, 3},
		{[]int{1, 2, 1}, 2},
		{[]int{4, 4}, 1},
	} {
		if got := Distinct(tc.keys, id); got != tc.want {
			t.Errorf("Distinct(%v) = %d, want %d", tc.keys, got, tc.want)
		}
	}
}

// TestCountdown pins the count that lets a key's last cell drop what its
// cells shared: eight goroutines finishing every cell see exactly one last
// cell per key, and a key counted out, or never counted, is never done
// again.
func TestCountdown(t *testing.T) {
	keys := []int{1, 2, 1, 3, 1, 2}
	cd := NewCountdown(keys, func(k int) int { return k })
	var last [4]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, k := range keys {
				if i%8 == w && cd.Done(k) {
					last[k].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 1; k <= 3; k++ {
		if n := last[k].Load(); n != 1 {
			t.Errorf("key %d: %d last cells, want 1", k, n)
		}
	}
	if cd.Done(1) || cd.Done(4) {
		t.Error("a key counted out, or never counted, finished again")
	}
}

// TestSiblings pins what a key's cells share: the first value put is kept
// and later ones are not, a dropped key is forgotten, and the map is
// released once nothing is kept.
func TestSiblings(t *testing.T) {
	var s Siblings[int, string]
	s.Put(1, "a")
	s.Put(1, "b")
	s.Put(2, "c")
	if v, ok := s.Get(1); !ok || v != "a" || s.Len() != 2 {
		t.Fatalf("Get(1) = %q, %v with %d kept, want the first put of 2", v, ok, s.Len())
	}
	s.Drop(1)
	if _, ok := s.Get(1); ok || s.Len() != 1 {
		t.Fatalf("a dropped key is still kept (%d kept)", s.Len())
	}
	s.Drop(2)
	if s.m != nil {
		t.Fatal("the map outlived its last value")
	}
}
