package cache

import (
	"testing"
	"testing/quick"
)

func dmCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "l1", SizeB: 1024, LineB: 32, Ways: 1, WriteBck: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{SizeB: 0, LineB: 32, Ways: 1},
		{SizeB: 1024, LineB: 0, Ways: 1},
		{SizeB: 1024, LineB: 32, Ways: 0},
		{SizeB: 1000, LineB: 32, Ways: 1},    // not divisible
		{SizeB: 1024, LineB: 24, Ways: 1},    // line not pow2
		{SizeB: 96 * 32, LineB: 32, Ways: 1}, // sets not pow2
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{SizeB: 256 << 10, LineB: 64, Ways: 4}); err != nil {
		t.Errorf("paper L2 config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := dmCache(t)
	if _, hit := c.Access(0x100, false); hit {
		t.Fatal("cold hit")
	}
	c.Fill(0x100, false)
	if _, hit := c.Access(0x100, false); !hit {
		t.Fatal("miss after fill")
	}
	if _, hit := c.Access(0x11f, false); !hit {
		t.Fatal("same line different offset missed")
	}
	if _, hit := c.Access(0x120, false); hit {
		t.Fatal("adjacent line hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	c := dmCache(t) // 32 sets, direct mapped: addresses 1024 apart collide
	c.Fill(0x0, true)
	l, hit := c.Access(0x0, true)
	if !hit || !l.Dirty {
		t.Fatal("write hit should mark dirty")
	}
	_, ev, evicted := c.Fill(0x400, false) // same set, evicts 0x0
	if !evicted || !ev.Dirty || ev.Addr != 0 {
		t.Fatalf("eviction %+v", ev)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Writebacks != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := dmCache(t)
	c.Fill(0x0, false)
	_, ev, evicted := c.Fill(0x400, false)
	if !evicted || ev.Dirty {
		t.Fatalf("eviction %+v", ev)
	}
	if c.Stats().Writebacks != 0 {
		t.Error("clean eviction wrote back")
	}
}

func TestLRUOrder(t *testing.T) {
	c := MustNew(Config{Name: "a2", SizeB: 4 * 32, LineB: 32, Ways: 4, WriteBck: true})
	// One set, 4 ways. Fill 4 lines; touch line 0; fill a 5th: line 1 evicted.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*32, false)
	}
	c.Access(0, false) // line 0 MRU
	_, ev, evicted := c.Fill(4*32, false)
	if !evicted || ev.Addr != 1*32 {
		t.Fatalf("evicted %+v, want line at 0x20", ev)
	}
	if _, hit := c.Access(0, false); !hit {
		t.Error("MRU line evicted")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := MustNew(Config{Name: "l2", SizeB: 256 << 10, LineB: 64, Ways: 4, WriteBck: true})
	addrs := []uint64{0x0, 0x123440, 0xdeadbc0, 0x7fffffc0}
	for _, a := range addrs {
		la := c.LineAddr(a)
		c.Fill(a, true)
		// Evict by filling Ways more lines in the same set.
		setStride := uint64(c.Config().SizeB / c.Config().Ways)
		var got *Victim
		for i := uint64(1); i <= uint64(c.Config().Ways); i++ {
			_, ev, evicted := c.Fill(a+i*setStride, false)
			if evicted && ev.Addr == la {
				got = &ev
			}
		}
		if got == nil {
			t.Fatalf("line %#x never evicted", a)
		}
		if !got.Dirty {
			t.Fatalf("line %#x lost dirty bit", a)
		}
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	c := MustNew(Config{Name: "a2", SizeB: 2 * 32, LineB: 32, Ways: 2, WriteBck: false})
	c.Fill(0, false)
	c.Fill(64, false) // same set; LRU = line 0
	c.Probe(0)        // must NOT promote line 0
	_, ev, evicted := c.Fill(128, false)
	if !evicted || ev.Addr != 0 {
		t.Fatalf("probe disturbed LRU: evicted %+v", ev)
	}
	if c.Stats().Hits != 0 || c.Stats().Misses != 0 {
		t.Error("probe updated stats")
	}
}

func TestAuxRoundTrip(t *testing.T) {
	c := dmCache(t)
	l, _, _ := c.Fill(0x80, false)
	l.Aux, l.AuthDone = 42, 99
	got, hit := c.Access(0x80, false)
	if !hit || got.Aux != 42 || got.AuthDone != 99 {
		t.Error("Aux or AuthDone lost")
	}
	c.Fill(0x480, false) // evict
	l2, _, _ := c.Fill(0x80, false)
	if l2.Aux != 0 || l2.AuthDone != 0 {
		t.Error("Aux or AuthDone leaked across refill")
	}
}

// Property: the cache never reports a hit for a line it was never told about,
// and always hits a just-filled line.
func TestQuickHitConsistency(t *testing.T) {
	c := MustNew(Config{Name: "q", SizeB: 8 << 10, LineB: 64, Ways: 2, WriteBck: true})
	resident := map[uint64]bool{}
	f := func(addr uint64, doFill bool) bool {
		addr %= 1 << 20
		la := c.LineAddr(addr)
		_, hit := c.Access(addr, false)
		if hit && !resident[la] {
			return false // hit on never-filled line
		}
		if doFill && !hit {
			if _, ev, evicted := c.Fill(addr, false); evicted {
				delete(resident, ev.Addr)
			}
			resident[la] = true
			if _, h := c.Access(addr, false); !h {
				return false // just-filled line must hit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	c := dmCache(t)
	c.Access(0, false)
	c.ResetStats()
	if s := c.Stats(); s.Misses != 0 {
		t.Error("stats survived reset")
	}
}

// refCache is an executable specification: a map plus explicit LRU lists.
type refCache struct {
	sets     int
	ways     int
	lineB    int
	writeBck bool        // writes mark lines dirty
	sets_    [][]refLine // per-set MRU-first
}

type refLine struct {
	addr  uint64
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		sets:     cfg.SizeB / (cfg.LineB * cfg.Ways),
		ways:     cfg.Ways,
		lineB:    cfg.LineB,
		writeBck: cfg.WriteBck,
		sets_:    make([][]refLine, cfg.SizeB/(cfg.LineB*cfg.Ways)),
	}
}

func (r *refCache) setOf(addr uint64) int {
	return int(addr / uint64(r.lineB) % uint64(r.sets))
}

func (r *refCache) access(addr uint64, write bool) bool {
	la := addr &^ uint64(r.lineB-1)
	s := r.setOf(addr)
	for i, l := range r.sets_[s] {
		if l.addr == la {
			l.dirty = l.dirty || write && r.writeBck
			r.sets_[s] = append(append([]refLine{l}, r.sets_[s][:i]...), r.sets_[s][i+1:]...)
			return true
		}
	}
	return false
}

func (r *refCache) fill(addr uint64, write bool) (victim *refLine) {
	la := addr &^ uint64(r.lineB-1)
	s := r.setOf(addr)
	if len(r.sets_[s]) == r.ways {
		v := r.sets_[s][r.ways-1]
		victim = &v
		r.sets_[s] = r.sets_[s][:r.ways-1]
	}
	r.sets_[s] = append([]refLine{{addr: la, dirty: write && r.writeBck}}, r.sets_[s]...)
	return victim
}

// Property: the cache model agrees with the executable specification on
// every hit/miss outcome and every eviction identity under random access
// streams, for every shape the machine builds — the L1s, the L2, the
// counter and re-map caches — and for 2-, 4- and 8-way shapes whose sets
// share backing arrays with their neighbours.
func TestQuickAgainstReferenceModel(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "l1i", SizeB: 16 << 10, LineB: 32, Ways: 1},
		{Name: "l1d", SizeB: 16 << 10, LineB: 32, Ways: 1, WriteBck: true},
		{Name: "l2", SizeB: 256 << 10, LineB: 64, Ways: 4, WriteBck: true},
		{Name: "ctr", SizeB: 32 << 10, LineB: 64, Ways: 4},
		{Name: "remap", SizeB: 256 << 10, LineB: 64, Ways: 4},
		{Name: "2way", SizeB: 8 << 10, LineB: 64, Ways: 2, WriteBck: true},
		{Name: "4way", SizeB: 4 << 10, LineB: 64, Ways: 4, WriteBck: true},
		{Name: "8way", SizeB: 4 << 10, LineB: 32, Ways: 8, WriteBck: true},
	} {
		t.Run(cfg.Name, func(t *testing.T) { checkAgainstReference(t, cfg) })
	}
}

func checkAgainstReference(t *testing.T, cfg Config) {
	c := MustNew(cfg)
	r := newRefCache(cfg)
	// Eight times the capacity, so every set sees conflicts.
	span := uint64(8 * cfg.SizeB)
	f := func(addrRaw uint32, write bool) bool {
		addr := uint64(addrRaw) % span
		_, hit := c.Access(addr, write)
		refHit := r.access(addr, write)
		if hit != refHit {
			t.Logf("addr %#x: hit=%v ref=%v", addr, hit, refHit)
			return false
		}
		if !hit {
			_, ev, evicted := c.Fill(addr, write)
			refEv := r.fill(addr, write)
			if evicted != (refEv != nil) {
				t.Logf("addr %#x: eviction presence mismatch", addr)
				return false
			}
			if evicted && (ev.Addr != refEv.addr || ev.Dirty != refEv.dirty) {
				t.Logf("addr %#x: victim (%#x,%v) ref (%#x,%v)", addr, ev.Addr, ev.Dirty, refEv.addr, refEv.dirty)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
