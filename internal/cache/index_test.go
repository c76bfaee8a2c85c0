package cache_test

import (
	"math/rand"
	"testing"

	"authpoint/internal/cache"
	"authpoint/internal/sim"
)

// TestIndexMatchesDivision runs random addresses through every cache
// geometry the default machine builds: the L1s and the L2, and the counter,
// MAC-tree node and re-map caches of the secure memory controller. The set
// and tag that index takes by shift and mask must equal the ones division
// gives, and a line that Fill evicts must report the address it was filled
// at.
func TestIndexMatchesDivision(t *testing.T) {
	cfg := sim.DefaultConfig()
	m, s := cfg.Mem, cfg.Sec
	geometries := []cache.Config{
		{Name: "l1i", SizeB: m.L1IB, LineB: m.L1ILineB, Ways: m.L1IWays},
		{Name: "l1d", SizeB: m.L1DB, LineB: m.L1DLineB, Ways: m.L1DWays, WriteBck: true},
		{Name: "l2", SizeB: m.L2B, LineB: m.L2LineB, Ways: m.L2Ways, WriteBck: true},
		{Name: "ctr", SizeB: s.CtrCacheB, LineB: s.LineB, Ways: max(1, s.CtrCacheWays)},
		{Name: "treecache", SizeB: s.TreeCacheB, LineB: 64, Ways: 4},
		{Name: "remap", SizeB: s.RemapCacheB, LineB: s.LineB, Ways: max(1, s.RemapCacheWays)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range geometries {
		c, err := cache.New(g)
		if err != nil {
			t.Fatal(err)
		}
		lineB, sets := uint64(g.LineB), uint64(g.SizeB/(g.LineB*g.Ways))
		stride := sets * lineB // one way's worth: the next line in the same set
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64()
			if i%2 == 1 {
				addr >>= 32 // addresses the simulator uses, too
			}
			set, tag := c.Index(addr)
			if uint64(set) != addr/lineB%sets || tag != addr/lineB/sets {
				t.Fatalf("%s: %#x indexes to set %d, tag %#x; want %d, %#x",
					g.Name, addr, set, tag, addr/lineB%sets, addr/lineB/sets)
			}
			if i%10 != 0 {
				continue
			}
			addr >>= 2 // room above for the lines that evict it
			c.Fill(addr, true)
			for w := 1; w <= g.Ways; w++ {
				_, v, evicted := c.Fill(addr+uint64(w)*stride, false)
				if w < g.Ways {
					continue
				}
				if !evicted || v.Addr != c.LineAddr(addr) || v.Dirty != g.WriteBck {
					t.Fatalf("%s: the line filled at %#x was evicted as %+v (evicted %v), want address %#x, dirty %v",
						g.Name, addr, v, evicted, c.LineAddr(addr), g.WriteBck)
				}
			}
		}
	}
}
