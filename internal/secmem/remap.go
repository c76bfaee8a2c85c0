package secmem

import (
	"authpoint/internal/bus"
	"authpoint/internal/cache"
	"authpoint/internal/dram"
	"authpoint/internal/mem"
)

// Remapper implements the revised HIDE-style address obfuscation of Section
// 5.2.4: every protected line lives at a remapped slot; the slot changes on
// every write-back; the current mapping is held in an encrypted re-map table
// in external memory with an on-chip re-map cache in front of it.
//
// Functionally the ciphertext stays indexed by true line address in this
// model — what the obfuscation changes is the address *visible on the bus*
// (the adversary's view) and the timing (re-map cache misses cost an extra
// metadata fetch; reshuffles cost a table write). This captures exactly the
// properties the paper measures: the side channel sees only shuffled slots,
// and IPC pays for re-map cache misses.
type Remapper struct {
	lineB   int
	slots   []uint64 // leaf index -> current slot index
	nSlots  uint64
	lcg     uint64 // deterministic shuffle state
	cache   *cache.Cache
	mem     *mem.Memory
	bus     *bus.Bus
	dram    *dram.DRAM
	tblBase uint64

	hits   uint64
	misses uint64
}

// NewRemapper builds the remapper with the configured re-map cache size:
// Reset on a zero Remapper.
func NewRemapper(cfg Config, m *mem.Memory, b *bus.Bus, d *dram.DRAM) (*Remapper, error) {
	r := new(Remapper)
	if err := r.Reset(cfg, m, b, d); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset returns the remapper to the state NewRemapper leaves, keeping its
// re-map cache's and slot table's storage. On an error the remapper is
// unusable.
func (r *Remapper) Reset(cfg Config, m *mem.Memory, b *bus.Bus, d *dram.DRAM) error {
	// Each re-map cache line holds lineB/8 packed 8-byte table entries, so
	// the cache geometry mirrors a normal data cache over the table region.
	c, err := resetCache(r.cache, cache.Config{
		Name:  "remap",
		SizeB: cfg.RemapCacheB,
		LineB: cfg.LineB,
		Ways:  max(1, cfg.RemapCacheWays),
	})
	if err != nil {
		return err
	}
	*r = Remapper{
		lineB:   cfg.LineB,
		slots:   r.slots[:0],
		lcg:     0x9e3779b97f4a7c15,
		cache:   c,
		mem:     m,
		bus:     b,
		dram:    d,
		tblBase: RemapBase + 0x1000_0000,
	}
	return nil
}

// Init assigns each of the controller's leaves — its protected lines, in
// leaf order — an initial slot via a deterministic shuffle (the OS loader's
// randomized placement).
func (r *Remapper) Init(leaves int) {
	r.nSlots = uint64(leaves) * 2 // head-room so reshuffling has free slots
	if r.nSlots == 0 {
		r.nSlots = 1
	}
	r.slots = resize(r.slots, leaves)
	for i := range r.slots {
		r.slots[i] = r.next()
	}
}

func (r *Remapper) next() uint64 {
	r.lcg = r.lcg*6364136223846793005 + 1442695040888963407
	return (r.lcg >> 17) % r.nSlots
}

// tableEntryAddr is where a line's re-map table entry lives in external
// memory (itself encrypted in a real design; timing-only here).
func (r *Remapper) tableEntryAddr(lineAddr uint64) uint64 {
	return r.tblBase + (lineAddr/uint64(r.lineB))*8
}

// SlotAddr converts a slot index to the bus-visible address.
func (r *Remapper) SlotAddr(slot uint64) uint64 {
	return RemapBase + slot*uint64(r.lineB)
}

// Lookup resolves the current bus address for a fetch, starting at cycle
// now, of the line at lineAddr, whose leaf index is leaf. A re-map cache
// miss first fetches the table entry from memory. It returns the obfuscated
// address and the cycle the mapping was known.
func (r *Remapper) Lookup(now uint64, lineAddr uint64, leaf int) (busAddr uint64, ready uint64) {
	ready = now
	entry := r.tableEntryAddr(lineAddr)
	if _, hit := r.cache.Access(entry, false); hit {
		r.hits++
	} else {
		r.misses++
		_, arrive := r.busDramRead(now, entry, r.lineB)
		ready = arrive
		r.cache.Fill(entry, false)
	}
	return r.SlotAddr(r.slots[leaf]), ready
}

// Reshuffle assigns the line at lineAddr, whose leaf index is leaf, a fresh
// slot on write-back and updates the table. It returns the new obfuscated
// address and the cycle the mapping update is consistent (table write
// issued).
func (r *Remapper) Reshuffle(now uint64, lineAddr uint64, leaf int) (busAddr uint64, ready uint64) {
	r.slots[leaf] = r.next()
	entry := r.tableEntryAddr(lineAddr)
	if _, hit := r.cache.Access(entry, true); hit {
		r.hits++
	} else {
		r.misses++
		r.cache.Fill(entry, true)
	}
	// The table write drains behind the line write-back; the new mapping is
	// known on-chip immediately.
	r.bus.Transact(now, bus.WriteMeta, entry, 8)
	return r.SlotAddr(r.slots[leaf]), now
}

func (r *Remapper) busDramRead(start uint64, addr uint64, nbytes int) (uint64, uint64) {
	addrDone, _ := r.bus.Transact(start, bus.ReadMeta, addr, nbytes)
	_, done := r.dram.Access(addrDone, addr, nbytes)
	return addrDone, done
}
