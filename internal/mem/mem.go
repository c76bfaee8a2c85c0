// Package mem provides the physical memory backing store and the virtual
// address validity model of the simulated machine.
//
// Physical memory is sparse (page-granular allocation) and byte-addressed.
// It stores whatever the memory controller puts there — for protected
// regions that is ciphertext plus MACs, which is exactly what an adversary
// probing the DIMMs would see. Tampering helpers operate on this store.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// PageSize is the virtual/physical page size (4KB, the paper's §3.3 premise:
// the low 12 address bits survive translation untouched).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Memory is a sparse byte-addressable physical memory.
type Memory struct {
	pages map[uint64][]byte
	// One-entry page cache: simulator accesses are heavily page-local, and
	// this keeps the hot path off the map.
	lastPN   uint64
	lastPage []byte
	// free holds the pages of the run before the last Reset, for reuse.
	free [][]byte
}

// New creates an empty memory.
func New() *Memory {
	m := &Memory{pages: map[uint64][]byte{}}
	m.Reset()
	return m
}

// Reset empties the memory: every page reads as zero again. The memory
// keeps the pages it held for later writes, clearing each as it reuses it,
// so a memory reused for a run of the same size allocates nothing. Pages
// kept at the Reset before and not reused since are dropped.
func (m *Memory) Reset() {
	clear(m.free[:cap(m.free)])
	m.free = m.free[:0]
	for _, p := range m.pages {
		m.free = append(m.free, p)
	}
	clear(m.pages)
	m.lastPN, m.lastPage = ^uint64(0), nil
}

// PageCount returns how many pages have been written since New or the last
// Reset.
func (m *Memory) PageCount() int { return len(m.pages) }

// Pages returns the page numbers of every page written since New or the
// last Reset, in ascending order.
func (m *Memory) Pages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

func (m *Memory) page(addr uint64, create bool) []byte {
	pn := addr >> PageShift
	if pn == m.lastPN {
		return m.lastPage
	}
	p, ok := m.pages[pn]
	if !ok {
		if !create {
			return nil
		}
		p = m.newPage(pn, false)
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// newPage maps a page at page number pn, reusing a free one if it has one.
// A reused page is cleared unless whole says the caller overwrites all of
// it.
func (m *Memory) newPage(pn uint64, whole bool) []byte {
	var p []byte
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free = m.free[:n-1]
		if !whole {
			clear(p)
		}
	} else {
		p = make([]byte, PageSize)
	}
	m.pages[pn] = p
	return p
}

// LoadByte returns the byte at addr (0 if the page was never written).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(PageSize-1)] = v
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(out, addr)
	return out
}

// ReadInto fills dst with len(dst) bytes starting at addr without
// allocating (the secure-memory controller's per-fetch path). It copies a
// page span at a time; a page never written reads as zero and stays
// unallocated.
func (m *Memory) ReadInto(dst []byte, addr uint64) {
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := min(uint64(len(dst)), PageSize-off)
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n
	}
}

// Write stores data starting at addr, a page span at a time.
func (m *Memory) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		off := addr & (PageSize - 1)
		p := m.page(addr, false)
		if p == nil {
			p = m.newPage(addr>>PageShift, off == 0 && len(data) >= PageSize)
		}
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// ReadUint reads an n-byte little-endian unsigned integer (n <= 8).
func (m *Memory) ReadUint(addr uint64, n int) uint64 {
	var b [8]byte
	m.ReadInto(b[:n], addr)
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint stores an n-byte little-endian unsigned integer (n <= 8).
func (m *Memory) WriteUint(addr uint64, v uint64, n int) {
	for i := 0; i < n; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// XorRange XORs mask into memory at addr — the adversary's bit-flipping
// primitive against ciphertext at rest.
func (m *Memory) XorRange(addr uint64, mask []byte) {
	for i, b := range mask {
		a := addr + uint64(i)
		m.StoreByte(a, m.LoadByte(a)^b)
	}
}

// Snapshot copies n bytes for later replay (replay attacks re-Write them).
func (m *Memory) Snapshot(addr uint64, n int) []byte { return m.Read(addr, n) }

// AddressSpace models virtual address validity. The simulated machine uses
// an identity mapping (VA == PA) — sufficient for the paper's experiments —
// but tracks which pages are mapped so that wild fetch addresses fault, and
// keeps the fault log that Section 3.3's "read the displayed fault address"
// attack consumes.
type AddressSpace struct {
	valid map[uint64]bool
	// Disabled turns off translation checking entirely, as on the no-VM
	// embedded processors the paper notes (§3.3): every address is valid.
	Disabled bool
	faultLog []uint64
}

// NewAddressSpace creates an address space with no valid pages.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{valid: map[uint64]bool{}}
}

// Reset unmaps every page, re-enables translation checking and empties the
// fault log, keeping the page map's storage.
func (s *AddressSpace) Reset() {
	clear(s.valid)
	s.Disabled = false
	s.faultLog = s.faultLog[:0]
}

// MapRange marks [addr, addr+n) valid.
func (s *AddressSpace) MapRange(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	for pn := addr >> PageShift; pn <= (addr+n-1)>>PageShift; pn++ {
		s.valid[pn] = true
	}
}

// UnmapPage invalidates the page containing addr.
func (s *AddressSpace) UnmapPage(addr uint64) { delete(s.valid, addr>>PageShift) }

// Valid reports whether addr is mapped.
func (s *AddressSpace) Valid(addr uint64) bool {
	return s.Disabled || s.valid[addr>>PageShift]
}

// MappedPages returns how many pages are mapped.
func (s *AddressSpace) MappedPages() int { return len(s.valid) }

// Fault records a translation fault for addr. Faulting addresses are logged
// in the clear: the paper observes that real systems display or log faulting
// addresses, so a fault is itself a disclosure channel.
func (s *AddressSpace) Fault(addr uint64) {
	s.faultLog = append(s.faultLog, addr)
}

// FaultLog returns all faulting addresses recorded so far.
func (s *AddressSpace) FaultLog() []uint64 {
	return append([]uint64(nil), s.faultLog...)
}

// TLB is a set-associative translation lookaside buffer timing model. It
// holds page numbers only; translation itself is identity.
type TLB struct {
	sets  int
	ways  int
	tags  [][]uint64 // page numbers; ^0 = invalid
	order [][]int    // LRU order per set: order[s][0] is MRU way
	hits  uint64
	miss  uint64
}

// NewTLB creates a TLB with the given total entries and associativity:
// Reset on a zero TLB.
func NewTLB(entries, ways int) (*TLB, error) {
	t := new(TLB)
	if err := t.Reset(entries, ways); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset empties the TLB and shapes it for entries and ways, zeroing its
// counters. A TLB of the same shape keeps its tables. On an error the TLB
// is unusable.
func (t *TLB) Reset(entries, ways int) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("mem: bad TLB shape entries=%d ways=%d", entries, ways)
	}
	sets := entries / ways
	if t.tags == nil || sets != t.sets || ways != t.ways {
		// As in cache.New, every set's tags and LRU order are cut from one
		// backing array per table.
		t.sets, t.ways = sets, ways
		t.tags = make([][]uint64, sets)
		t.order = make([][]int, sets)
		tags := make([]uint64, entries)
		order := make([]int, entries)
		for s := 0; s < sets; s++ {
			lo, hi := s*ways, (s+1)*ways
			t.tags[s] = tags[lo:hi:hi]
			t.order[s] = order[lo:hi:hi]
		}
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			t.tags[s][w] = ^uint64(0)
			t.order[s][w] = w
		}
	}
	t.hits, t.miss = 0, 0
	return nil
}

// Lookup probes the TLB for addr's page, filling on miss, and reports hit.
func (t *TLB) Lookup(addr uint64) bool {
	pn := addr >> PageShift
	set := int(pn % uint64(t.sets))
	for _, w := range t.order[set] {
		if t.tags[set][w] == pn {
			t.touch(set, w)
			t.hits++
			return true
		}
	}
	t.miss++
	victim := t.order[set][t.ways-1]
	t.tags[set][victim] = pn
	t.touch(set, victim)
	return false
}

func (t *TLB) touch(set, way int) {
	ord := t.order[set]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
}

// Stats returns hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.miss }

// Flush invalidates all entries.
func (t *TLB) Flush() {
	for s := range t.tags {
		for w := range t.tags[s] {
			t.tags[s][w] = ^uint64(0)
		}
	}
}
