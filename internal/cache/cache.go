// Package cache implements a generic set-associative, write-back cache
// timing model with LRU replacement. It stores tags and line metadata only —
// the functional data lives in the simulator's memory model — and is reused
// for every cache-shaped structure in the machine: L1 I/D, the unified L2,
// the counter cache of the encryption engine, the hash-tree node cache, and
// the address-obfuscation re-map cache.
package cache

import (
	"fmt"
	"math/bits"

	"authpoint/internal/obs"
)

// Line is the metadata of one cache line.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// Aux carries model-specific per-line state (e.g. the ready-cycle of
	// an in-flight fill).
	Aux uint64
	// AuthDone is the cycle the line's integrity verification completes,
	// for caches that hold verified lines (the L2); Fill zeroes it.
	AuthDone uint64
}

// Config describes a cache shape.
type Config struct {
	Name     string
	SizeB    int // total capacity in bytes
	LineB    int // line size in bytes
	Ways     int // associativity (1 = direct-mapped)
	WriteBck bool
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative cache model.
type Cache struct {
	cfg   Config
	sets  int
	lines [][]Line // [set][way]
	order [][]int  // LRU order: order[s][0] = MRU way
	stats Stats

	// index shifts and masks where it would divide (Reset requires the
	// line size and the set count to be powers of two): an address's line
	// is addr>>lineShift, its set line&setMask and its tag line>>setShift.
	lineShift, setShift uint
	setMask             uint64

	// filled lists, once each, the sets Fill has written since the last
	// Reset, and filledBits marks them: every other set is still in its
	// reset state, so Reset clears only these.
	filled     []int32
	filledBits []uint64

	sink  obs.Sink
	track obs.Track
	clock func() uint64
}

// SetObserver attaches an event sink. Access has no cycle argument, so the
// owner supplies a clock closure reading its current cycle; track names this
// cache's trace lane.
func (c *Cache) SetObserver(s obs.Sink, track obs.Track, clock func() uint64) {
	c.sink = s
	c.track = track
	c.clock = clock
}

// New validates cfg and builds the cache: Reset on a zero Cache.
func New(cfg Config) (*Cache, error) {
	c := new(Cache)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset empties the cache and shapes it for cfg: every line invalid, every
// set's LRU order reset, the counters zeroed and the observer detached. A
// cache whose geometry cfg keeps keeps its set arrays and clears only the
// sets filled since the last Reset, so emptying it costs what its last run
// touched, not its capacity. On an error the cache is unusable.
func (c *Cache) Reset(cfg Config) error {
	if cfg.SizeB <= 0 || cfg.LineB <= 0 || cfg.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", cfg.Name, cfg)
	}
	if cfg.SizeB%(cfg.LineB*cfg.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways %d", cfg.Name, cfg.SizeB, cfg.LineB*cfg.Ways)
	}
	if cfg.LineB&(cfg.LineB-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineB)
	}
	sets := cfg.SizeB / (cfg.LineB * cfg.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	same := c.lines != nil && sets == c.sets && cfg.Ways == c.cfg.Ways
	c.cfg, c.sets, c.stats = cfg, sets, Stats{}
	c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineB)))
	c.setShift = uint(bits.TrailingZeros(uint(sets)))
	c.setMask = uint64(sets - 1)
	c.sink, c.track, c.clock = nil, 0, nil
	if same {
		for _, s := range c.filled {
			clear(c.lines[s])
			for w := range c.order[s] {
				c.order[s][w] = w
			}
		}
		c.filled = c.filled[:0]
		clear(c.filledBits)
		return nil
	}
	// Each set's ways and LRU order are cut from one backing array per
	// table, so a cache costs the same few allocations whatever its set
	// count. Lookups keep the [set][way] index: a flat lines[s*ways+w]
	// index measured slower per lookup.
	c.lines = make([][]Line, sets)
	c.order = make([][]int, sets)
	lines := make([]Line, sets*cfg.Ways)
	order := make([]int, sets*cfg.Ways)
	for s := 0; s < sets; s++ {
		lo, hi := s*cfg.Ways, (s+1)*cfg.Ways
		c.lines[s] = lines[lo:hi:hi]
		c.order[s] = order[lo:hi:hi]
		for w := 0; w < cfg.Ways; w++ {
			c.order[s][w] = w
		}
	}
	c.filled = c.filled[:0]
	c.filledBits = make([]uint64, (sets+63)/64)
	return nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineB-1) }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> c.setShift
}

// Probe reports whether addr hits, without updating LRU or stats.
func (c *Cache) Probe(addr uint64) (*Line, bool) {
	set, tag := c.index(addr)
	for w := range c.lines[set] {
		l := &c.lines[set][w]
		if l.Valid && l.Tag == tag {
			return l, true
		}
	}
	return nil, false
}

// Access looks up addr, updating LRU and stats. write marks the line dirty
// on a hit. It reports the hit and, on a hit, the line.
func (c *Cache) Access(addr uint64, write bool) (*Line, bool) {
	set, tag := c.index(addr)
	for _, w := range c.order[set] {
		l := &c.lines[set][w]
		if l.Valid && l.Tag == tag {
			c.touch(set, w)
			if write && c.cfg.WriteBck {
				l.Dirty = true
			}
			c.stats.Hits++
			if c.sink != nil {
				c.sink.Emit(obs.Event{Cycle: c.clock(), Kind: obs.EvCacheHit, Track: c.track, Addr: addr})
			}
			return l, true
		}
	}
	c.stats.Misses++
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: c.clock(), Kind: obs.EvCacheMiss, Track: c.track, Addr: addr})
	}
	return nil, false
}

// RepeatHit charges a hit on addr's line without looking it up: the hit
// count and, with an observer, the EvCacheHit event. The caller must know
// the line is its set's most recently used, as it is right after an Access
// that hit it when nothing has touched the cache since, so that the lookup
// would change no LRU state.
func (c *Cache) RepeatHit(addr uint64) {
	c.stats.Hits++
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: c.clock(), Kind: obs.EvCacheHit, Track: c.track, Addr: addr})
	}
}

// Victim describes a line evicted by Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill installs addr's line (after a miss), evicting the LRU way. It returns
// the filled line, the displaced line's identity and whether a valid line
// was displaced (by value: a fill must not allocate). write marks the new
// line dirty.
func (c *Cache) Fill(addr uint64, write bool) (l *Line, victim Victim, evicted bool) {
	set, tag := c.index(addr)
	if bit := uint64(1) << (set & 63); c.filledBits[set>>6]&bit == 0 {
		c.filledBits[set>>6] |= bit
		c.filled = append(c.filled, int32(set))
	}
	way := c.order[set][c.cfg.Ways-1]
	l = &c.lines[set][way]
	if l.Valid {
		c.stats.Evictions++
		victim = Victim{
			Addr:  (l.Tag<<c.setShift | uint64(set)) << c.lineShift,
			Dirty: l.Dirty,
		}
		evicted = true
		if l.Dirty {
			c.stats.Writebacks++
		}
	}
	*l = Line{Tag: tag, Valid: true, Dirty: write && c.cfg.WriteBck}
	c.touch(set, way)
	return l, victim, evicted
}

func (c *Cache) touch(set, way int) {
	ord := c.order[set]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (after cache warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }
