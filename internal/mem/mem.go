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

// recentPages is the number of pages Memory.page caches.
const recentPages = 4

// Memory is a sparse byte-addressable physical memory.
type Memory struct {
	pages map[uint64][]byte
	// recent caches the pages page found last, so that the hot path stays
	// off the map: the core reads its text page for every fetched word and
	// one of a few data pages for every load and store. Entries are
	// replaced first in, first out, at next; an empty entry has page
	// number ^0, which no address has.
	recent [recentPages]cachedPage
	next   int
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
	for i := range m.recent {
		m.recent[i] = cachedPage{pn: ^uint64(0)}
	}
	m.next = 0
}

// cachedPage is an entry of Memory.recent: page p at page number pn.
type cachedPage struct {
	pn uint64
	p  []byte
}

// PageCount returns how many pages have been written since New or the last
// Reset.
func (m *Memory) PageCount() int { return len(m.pages) }

// Written reports whether the page holding addr has been written since New
// or the last Reset. A page never written holds no storage and reads as
// zero. Written reads nothing and changes nothing, not even the page cache.
func (m *Memory) Written(addr uint64) bool {
	_, ok := m.pages[addr>>PageShift]
	return ok
}

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
	for i := range m.recent {
		if m.recent[i].pn == pn {
			return m.recent[i].p
		}
	}
	p, ok := m.pages[pn]
	if !ok {
		if !create {
			return nil
		}
		p = m.newPage(pn, false)
	}
	m.recent[m.next] = cachedPage{pn, p}
	m.next = (m.next + 1) % recentPages
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

// zeroPage is what a page never written reads as. Spans hands slices of it
// to callers, which must not write to them.
var zeroPage [PageSize]byte

// Spans passes the n bytes starting at addr to fn one page span at a time,
// in address order, without copying: a span of a page never written is a
// slice of a shared all-zero page. It stops at the first call that returns
// false and reports whether every call returned true. fn must neither
// modify a span nor keep it past the call.
func (m *Memory) Spans(addr, n uint64, fn func(span []byte) bool) bool {
	for n > 0 {
		off := addr & (PageSize - 1)
		k := min(n, PageSize-off)
		p := m.page(addr, false)
		if p == nil {
			p = zeroPage[:]
		}
		if !fn(p[off : off+k]) {
			return false
		}
		addr += k
		n -= k
	}
	return true
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

// ReadUint reads an n-byte little-endian unsigned integer (n <= 8). A word
// within one page costs one page lookup; a page never written reads as zero
// and stays unallocated.
func (m *Memory) ReadUint(addr uint64, n int) uint64 {
	off := addr & (PageSize - 1)
	if off+uint64(n) > PageSize {
		var b [8]byte
		m.ReadInto(b[:n], addr)
		return binary.LittleEndian.Uint64(b[:])
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(p[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	}
	var b [8]byte
	copy(b[:n], p[off:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint stores an n-byte little-endian unsigned integer (n <= 8). A
// word within one page costs one page lookup.
func (m *Memory) WriteUint(addr uint64, v uint64, n int) {
	off := addr & (PageSize - 1)
	if off+uint64(n) > PageSize {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.Write(addr, b[:n])
		return
	}
	p := m.page(addr, true)
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(p[off:], v)
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
	default:
		for i := range n {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
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
	// ranges holds each MapRange's pages, in the order mapped. A machine
	// maps three or four ranges (text, data, stack, any probe windows), so
	// Valid scans them rather than looking a page up in a map.
	ranges   []pageRange
	faultLog []uint64
}

// pageRange is the inclusive page-number range [first, last].
type pageRange struct{ first, last uint64 }

// NewAddressSpace creates an address space with no valid pages.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Reset unmaps every page and empties the fault log, keeping their storage.
func (s *AddressSpace) Reset() {
	s.ranges = s.ranges[:0]
	s.faultLog = s.faultLog[:0]
}

// MapRange marks every page that [addr, addr+n) touches valid.
func (s *AddressSpace) MapRange(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	s.ranges = append(s.ranges, pageRange{addr >> PageShift, (addr + n - 1) >> PageShift})
}

// Valid reports whether addr is mapped.
func (s *AddressSpace) Valid(addr uint64) bool {
	pn := addr >> PageShift
	for _, r := range s.ranges {
		if r.first <= pn && pn <= r.last {
			return true
		}
	}
	return false
}

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
	ways  int
	mask  uint64   // sets - 1: a page's set is its number's low bits
	tags  []uint64 // page numbers at set*ways+way; ^0 = invalid
	order []int    // each set's ways from most to least recently used, at set*ways
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
// counters. The set count, entries/ways, must be a power of two. A TLB of
// the same shape keeps its tables. On an error the TLB is unusable.
func (t *TLB) Reset(entries, ways int) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("mem: bad TLB shape entries=%d ways=%d", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: TLB set count %d not a power of two", sets)
	}
	if len(t.tags) != entries || ways != t.ways {
		t.ways = ways
		t.tags = make([]uint64, entries)
		t.order = make([]int, entries)
	}
	t.mask = uint64(sets - 1)
	for s := 0; s < entries; s += ways {
		for w := 0; w < ways; w++ {
			t.tags[s+w] = ^uint64(0)
			t.order[s+w] = w
		}
	}
	t.hits, t.miss = 0, 0
	return nil
}

// Lookup probes the TLB for addr's page, filling on miss, and reports hit.
func (t *TLB) Lookup(addr uint64) bool {
	pn := addr >> PageShift
	s := int(pn&t.mask) * t.ways
	ord := t.order[s : s+t.ways]
	for i, w := range ord {
		if t.tags[s+w] == pn {
			copy(ord[1:i+1], ord[:i])
			ord[0] = w
			t.hits++
			return true
		}
	}
	t.miss++
	victim := ord[len(ord)-1]
	t.tags[s+victim] = pn
	copy(ord[1:], ord[:len(ord)-1])
	ord[0] = victim
	return false
}

// RepeatHit charges a hit without looking the page up. The caller must know
// the page is its set's most recently used, as it is right after a Lookup of
// it when nothing has looked up another page since, so that the lookup would
// change no LRU state.
func (t *TLB) RepeatHit() { t.hits++ }

// Stats returns hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.miss }

// Flush invalidates all entries.
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = ^uint64(0)
	}
}
