package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWriteBasics(t *testing.T) {
	m := New()
	if m.LoadByte(0x1234) != 0 {
		t.Error("fresh memory not zero")
	}
	m.StoreByte(0x1234, 0xab)
	if m.LoadByte(0x1234) != 0xab {
		t.Error("byte write lost")
	}
	data := []byte{1, 2, 3, 4, 5}
	m.Write(0xfff_e, data) // crosses page boundary
	if got := m.Read(0xfff_e, 5); !bytes.Equal(got, data) {
		t.Errorf("cross-page read %v", got)
	}
}

func TestUintAccessors(t *testing.T) {
	m := New()
	m.WriteUint(0x100, 0xdeadbeefcafebabe, 8)
	if got := m.ReadUint(0x100, 8); got != 0xdeadbeefcafebabe {
		t.Errorf("u64 %#x", got)
	}
	if got := m.ReadUint(0x100, 4); got != 0xcafebabe {
		t.Errorf("u32 low half %#x", got)
	}
	m.WriteUint(0x200, 0x11223344, 4)
	if got := m.ReadUint(0x200, 8); got != 0x11223344 {
		t.Errorf("u32 zero-extends: %#x", got)
	}
}

func TestXorRange(t *testing.T) {
	m := New()
	m.Write(0x40, []byte{0xf0, 0x0f})
	m.XorRange(0x40, []byte{0xff, 0xff})
	if got := m.Read(0x40, 2); !bytes.Equal(got, []byte{0x0f, 0xf0}) {
		t.Errorf("xor result %x", got)
	}
}

func TestSnapshotReplay(t *testing.T) {
	m := New()
	m.Write(0x80, []byte("old"))
	snap := m.Snapshot(0x80, 3)
	m.Write(0x80, []byte("new"))
	m.Write(0x80, snap)
	if got := m.Read(0x80, 3); string(got) != "old" {
		t.Errorf("replay got %q", got)
	}
}

func TestQuickMemoryConsistency(t *testing.T) {
	m := New()
	shadow := map[uint64]byte{}
	f := func(addr uint64, v byte) bool {
		addr %= 1 << 30
		m.StoreByte(addr, v)
		shadow[addr] = v
		return m.LoadByte(addr) == shadow[addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// spansEqual compares the memory at addr with want a page span at a time,
// as the differential checker compares a digest window with the oracle's.
func spansEqual(m *Memory, addr uint64, want []byte) bool {
	off := 0
	return m.Spans(addr, uint64(len(want)), func(span []byte) bool {
		same := bytes.Equal(span, want[off:off+len(span)])
		off += len(span)
		return same
	})
}

// Write, ReadInto, ReadUint and Spans work a page span at a time; they must
// agree with a byte-at-a-time reference at any address and length, across
// page boundaries and over pages that were never written (which read as
// zero). A span compare must tell the window's bytes from the same bytes
// with any one of them changed, also where the page was never written.
func TestQuickPageSpanCopies(t *testing.T) {
	const pages = 64
	m := New()
	ref := map[uint64]byte{}
	f := func(write bool, wAddr, rAddr uint32, wLen, rLen uint16, fill byte, uPage, uBack, uLen uint8, flip uint16) bool {
		if write {
			addr := uint64(wAddr % (pages * PageSize))
			data := make([]byte, int(wLen)%(2*PageSize))
			for i := range data {
				data[i] = fill + byte(i)
			}
			m.Write(addr, data)
			for i, b := range data {
				ref[addr+uint64(i)] = b
			}
		}
		addr := uint64(rAddr % (pages * PageSize))
		got := bytes.Repeat([]byte{0xaa}, int(rLen)%(3*PageSize)) // ReadInto overwrites every byte
		m.ReadInto(got, addr)
		for i, b := range got {
			if b != ref[addr+uint64(i)] {
				return false
			}
		}
		var spans []byte
		next := addr
		m.Spans(addr, uint64(len(got)), func(span []byte) bool {
			if len(span) == 0 || uint64(len(span)) > PageSize-next%PageSize {
				t.Errorf("span of %d bytes at %#x crosses a page or is empty", len(span), next)
			}
			next += uint64(len(span))
			spans = append(spans, span...)
			return true
		})
		if !bytes.Equal(spans, got) || !spansEqual(m, addr, got) {
			return false
		}
		if len(got) > 0 {
			i := int(flip) % len(got)
			got[i] ^= 0x5a
			if spansEqual(m, addr, got) {
				return false
			}
		}
		// ReadUint ends within 8 bytes past a page boundary, so it often
		// straddles one.
		addr = uint64(uPage%pages+1)*PageSize - uint64(uBack%9)
		n := int(uLen%8) + 1
		var want uint64
		for i := n - 1; i >= 0; i-- {
			want = want<<8 | uint64(ref[addr+uint64(i)])
		}
		return m.ReadUint(addr, n) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// A span compare over a three-page window that starts and ends mid-page,
// across a written page between two never written, catches a one-byte
// difference at every offset, and stops at the span that holds it.
func TestSpansCompareEveryOffset(t *testing.T) {
	m := New()
	const start, n = PageSize + 100, 3 * PageSize
	data := make([]byte, PageSize/2)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	m.Write(2*PageSize+200, data) // pages 1 and 3 stay unwritten
	want := m.Read(start, n)
	if !spansEqual(m, start, want) {
		t.Fatal("span compare of a window with its own bytes failed")
	}
	spanOf := func(off int) int { return (start+off)/PageSize - start/PageSize }
	for off := range want {
		want[off] ^= 1
		calls, at := 0, 0
		same := m.Spans(start, n, func(span []byte) bool {
			calls++
			at += len(span)
			return bytes.Equal(span, want[at-len(span):at])
		})
		want[off] ^= 1
		if same || calls != spanOf(off)+1 {
			t.Fatalf("one-byte difference at offset %d: equal=%v after %d spans, want unequal after %d",
				off, same, calls, spanOf(off)+1)
		}
	}
	if zeroPage != [PageSize]byte{} {
		t.Fatal("the shared zero page was written")
	}
}

// Reading a page that was never written returns zeroes without allocating
// the page.
func TestReadUnwrittenAllocatesNoPage(t *testing.T) {
	m := New()
	m.Write(PageSize+10, []byte{7})
	buf := make([]byte, 3*PageSize)
	m.ReadInto(buf, 0)
	want := make([]byte, len(buf))
	want[PageSize+10] = 7
	if !bytes.Equal(buf, want) {
		t.Error("ReadInto over written and unwritten pages returned wrong bytes")
	}
	if v := m.ReadUint(8*PageSize-4, 8); v != 0 {
		t.Errorf("ReadUint over unwritten pages = %#x", v)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.ReadInto(buf, 16*PageSize+5) }); allocs != 0 {
		t.Errorf("ReadInto of unwritten pages allocated %v times", allocs)
	}
	_ = m.Read(32*PageSize, 100)
	_ = m.LoadByte(40 * PageSize)
	if len(m.pages) != 1 {
		t.Errorf("reads allocated pages: %d pages, want 1", len(m.pages))
	}
}

func TestAddressSpaceValidity(t *testing.T) {
	s := NewAddressSpace()
	if s.Valid(0x1000) {
		t.Error("unmapped address valid")
	}
	s.MapRange(0x1000, 8192)
	for _, a := range []uint64{0x1000, 0x1fff, 0x2000, 0x2fff} {
		if !s.Valid(a) {
			t.Errorf("%#x should be valid", a)
		}
	}
	if s.Valid(0x3000) {
		t.Error("page past range valid")
	}
	s.MapRange(0x5000, 0) // no-op
	if s.Valid(0x5000) {
		t.Error("zero-length map mapped a page")
	}
}

// TestAddressSpaceRanges pins the range list against a page-set model:
// adjacent and overlapping ranges, unaligned ends (a range maps every page
// it touches, up to its last byte's page and not the page after), zero
// lengths, and Reset.
func TestAddressSpaceRanges(t *testing.T) {
	type rng struct{ addr, n uint64 }
	cases := []struct {
		name   string
		ranges []rng
	}{
		{"adjacent", []rng{{0x10000, 0x2000}, {0x12000, 0x1000}}},
		{"overlapping", []rng{{0x10000, 0x3000}, {0x11800, 0x4000}, {0x10400, 0x100}}},
		{"unaligned ends", []rng{{0x10ff0, 0x20}, {0x13001, 0xfff}}},
		{"zero lengths", []rng{{0x10000, 0}, {0x14000, 1}, {0x16000, 0}}},
		{"last byte of the address space", []rng{{^uint64(0) - 0x1fff, 0x2000}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewAddressSpace()
			want := map[uint64]bool{}
			var probes []uint64
			for _, r := range tc.ranges {
				s.MapRange(r.addr, r.n)
				probes = append(probes, r.addr-1, r.addr, r.addr+r.n-1, r.addr+r.n,
					(r.addr+r.n-1)|(PageSize-1), ((r.addr+r.n-1)|(PageSize-1))+1)
				if r.n == 0 {
					continue
				}
				for pn := r.addr >> PageShift; ; pn++ {
					want[pn] = true
					if pn == (r.addr+r.n-1)>>PageShift {
						break
					}
				}
			}
			for _, a := range probes {
				if got := s.Valid(a); got != want[a>>PageShift] {
					t.Errorf("Valid(%#x) = %v, want %v", a, got, want[a>>PageShift])
				}
			}
			s.Reset()
			for _, a := range probes {
				if s.Valid(a) {
					t.Errorf("Valid(%#x) after Reset", a)
				}
			}
			s.MapRange(0x40000, 0x1000)
			if !s.Valid(0x40000) || !s.Valid(0x40fff) || s.Valid(0x41000) {
				t.Error("a range mapped after Reset is not exactly its page")
			}
		})
	}
}

func TestFaultLog(t *testing.T) {
	s := NewAddressSpace()
	s.Fault(0xdead)
	s.Fault(0xbeef)
	log := s.FaultLog()
	if len(log) != 2 || log[0] != 0xdead || log[1] != 0xbeef {
		t.Errorf("fault log %v", log)
	}
	// The returned slice is a copy.
	log[0] = 0
	if s.FaultLog()[0] != 0xdead {
		t.Error("FaultLog returned live slice")
	}
}

func TestTLBBehaviour(t *testing.T) {
	tlb, err := NewTLB(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tlb.Lookup(0x1000) {
		t.Error("cold TLB hit")
	}
	if !tlb.Lookup(0x1234) { // same page
		t.Error("same-page miss")
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats %d/%d", hits, misses)
	}
	tlb.Flush()
	if tlb.Lookup(0x1000) {
		t.Error("hit after flush")
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	tlb, err := NewTLB(8, 4) // 2 sets, 4 ways
	if err != nil {
		t.Fatal(err)
	}
	// Pages mapping to set 0: page numbers 0,2,4,... (pn % 2).
	pages := []uint64{0, 2, 4, 6} // fill set 0
	for _, pn := range pages {
		tlb.Lookup(pn << PageShift)
	}
	tlb.Lookup(0 << PageShift) // touch page 0: MRU
	tlb.Lookup(8 << PageShift) // evicts LRU = page 2
	if !tlb.Lookup(0 << PageShift) {
		t.Error("page 0 should survive")
	}
	if tlb.Lookup(2 << PageShift) {
		t.Error("page 2 should have been evicted")
	}
}

func TestTLBBadShape(t *testing.T) {
	if _, err := NewTLB(0, 4); err == nil {
		t.Error("0 entries accepted")
	}
	if _, err := NewTLB(10, 4); err == nil {
		t.Error("non-divisible shape accepted")
	}
	if _, err := NewTLB(12, 4); err == nil {
		t.Error("3 sets accepted: the set count must be a power of two")
	}
}

// refTLB is an executable specification of the TLB: per set, the resident
// page numbers most recently used first.
type refTLB struct {
	ways int
	sets [][]uint64
}

// lookup reports a hit and makes pn its set's most recent entry, evicting
// the least recent when a miss finds the set full.
func (r *refTLB) lookup(pn uint64) bool {
	s := &r.sets[pn%uint64(len(r.sets))]
	for i, p := range *s {
		if p == pn {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = pn
			return true
		}
	}
	if len(*s) == r.ways {
		*s = (*s)[:r.ways-1]
	}
	*s = append([]uint64{pn}, *s...)
	return false
}

// Property: the TLB agrees with the reference on every hit and miss — and so
// on every LRU victim — and on its counts, across Flush, for the machine's
// 128-entry 4-way shape, a direct-mapped one and a fully associative one.
func TestQuickTLBAgainstReferenceModel(t *testing.T) {
	for _, shape := range []struct{ entries, ways int }{{128, 4}, {16, 1}, {8, 8}} {
		tlb, err := NewTLB(shape.entries, shape.ways)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refTLB{ways: shape.ways, sets: make([][]uint64, shape.entries/shape.ways)}
		var hits, misses uint64
		// Pages from a span of four times the reach, so sets overflow; one
		// op in 64 is a Flush.
		f := func(raw uint16, off uint16) bool {
			if raw%64 == 0 {
				tlb.Flush()
				for s := range ref.sets {
					ref.sets[s] = nil
				}
				return true
			}
			pn := uint64(raw) % uint64(4*shape.entries)
			hit := tlb.Lookup(pn<<PageShift | uint64(off)%PageSize)
			if hit {
				hits++
			} else {
				misses++
			}
			if want := ref.lookup(pn); hit != want {
				t.Logf("%d/%d-way: page %d hit=%v, reference %v", shape.entries, shape.ways, pn, hit, want)
				return false
			}
			h, m := tlb.Stats()
			return h == hits && m == misses
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Fatal(err)
		}
	}
}

// byteUint composes the n-byte little-endian value at addr from LoadByte,
// the byte-wise reference for ReadUint.
func byteUint(m *Memory, addr uint64, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.LoadByte(addr+uint64(i)))
	}
	return v
}

// ReadUint and WriteUint take one page lookup for a word within a page and
// the span path for a word across a boundary. Both must equal byte-wise
// access for 1-, 4- and 8-byte words ending at a page's last byte, and
// across the boundary, as well as next to both.
func TestUintWordsAtPageEdges(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		for back := 0; back <= n+1; back++ {
			m := New()
			addr := 3*PageSize - uint64(n) + uint64(back) // back > 0 crosses into page 3
			v := 0x8877665544332211 + uint64(back)
			m.WriteUint(addr, v, n)
			want := v & (1<<(8*n) - 1) // all of v for n = 8
			if got := byteUint(m, addr, n); got != want {
				t.Errorf("%d-byte WriteUint at %#x: bytes read %#x, want %#x", n, addr, got, want)
			}
			if m.LoadByte(addr-1) != 0 || m.LoadByte(addr+uint64(n)) != 0 {
				t.Errorf("%d-byte WriteUint at %#x wrote outside its word", n, addr)
			}
			for i := 0; i < n; i++ {
				m.StoreByte(addr+uint64(i), byte(0xa0+i))
			}
			if got, want := m.ReadUint(addr, n), byteUint(m, addr, n); got != want {
				t.Errorf("%d-byte ReadUint at %#x = %#x, bytes hold %#x", n, addr, got, want)
			}
		}
	}
}

// The page cache must return each page's own bytes whatever the order the
// pages are used in, here among more pages than it holds.
func TestPageCacheManyPages(t *testing.T) {
	m := New()
	pages := []uint64{5 * PageSize, 9 * PageSize, 200 * PageSize, 1 * PageSize, 77 * PageSize, 6 * PageSize}
	if len(pages) <= recentPages {
		t.Fatalf("%d pages fit in the %d-entry cache", len(pages), recentPages)
	}
	for i, a := range pages {
		m.WriteUint(a+8, uint64(i+1), 8)
	}
	for step, i := range []int{0, 1, 0, 2, 1, 2, 0, 0, 3, 4, 5, 2, 2, 1, 0, 5, 1, 4, 1, 3, 2, 5, 0} {
		a := pages[i]
		if got := m.ReadUint(a+8, 8); got != uint64(i+1) {
			t.Fatalf("step %d: page %d reads %d, want %d", step, i, got, i+1)
		}
		m.WriteUint(a+16, uint64(step), 4)
		for j, b := range pages {
			if want := uint64(j + 1); m.LoadByte(b+8) != byte(want) {
				t.Fatalf("step %d: page %d's word reads %d, want %d", step, j, m.LoadByte(b+8), want)
			}
		}
	}
}

// Reset forgets every cached page: after it, no page reads its old bytes,
// and writes land in pages the memory holds.
func TestResetForgetsCachedPages(t *testing.T) {
	m := New()
	var addrs []uint64
	for i := range recentPages {
		a := uint64(2+5*i) * PageSize
		addrs = append(addrs, a)
		m.WriteUint(a, 0x1111*uint64(i+1), 8) // fills every entry
	}
	m.Reset()
	for _, a := range addrs {
		if got := m.ReadUint(a, 8); got != 0 {
			t.Errorf("after Reset, %#x reads %#x, want 0", a, got)
		}
	}
	if m.PageCount() != 0 {
		t.Fatalf("after Reset and reads, %d pages, want 0", m.PageCount())
	}
	for i, a := range addrs {
		m.WriteUint(a, uint64(i+7), 8)
	}
	for i, a := range addrs {
		if got := m.ReadUint(a, 8); got != uint64(i+7) {
			t.Errorf("after Reset and a write of %d, %#x reads %d", i+7, a, got)
		}
	}
	if m.PageCount() != len(addrs) {
		t.Errorf("after Reset, writes to %d pages hold %d", len(addrs), m.PageCount())
	}
}

// ReadUint of a page never written reads 0 and creates no page, within a
// page and across a boundary into one.
func TestReadUintUnwrittenCreatesNoPage(t *testing.T) {
	m := New()
	m.WriteUint(PageSize, 0xff, 1)
	for _, n := range []int{1, 4, 8} {
		for _, addr := range []uint64{4 * PageSize, 5*PageSize - 4, 2*PageSize - 2} {
			if got := m.ReadUint(addr, n); got != 0 {
				t.Errorf("%d-byte ReadUint at unwritten %#x = %#x, want 0", n, addr, got)
			}
		}
	}
	if m.PageCount() != 1 {
		t.Errorf("reads of unwritten pages left %d pages, want 1", m.PageCount())
	}
}

// TestWritten pins which pages Written reports: every page a write of any
// kind touched, a page written with zeros included, and none that reads
// touched; Reset forgets them all, and Written itself creates no page.
func TestWritten(t *testing.T) {
	m := New()
	m.StoreByte(PageSize+7, 0)
	m.Write(3*PageSize-2, []byte{1, 2, 3, 4})
	m.XorRange(6*PageSize, []byte{0})
	m.ReadUint(8*PageSize, 8)
	m.Spans(9*PageSize, PageSize, func([]byte) bool { return true })
	want := map[uint64]bool{1: true, 2: true, 3: true, 6: true}
	for pn := uint64(0); pn < 12; pn++ {
		if got := m.Written(pn*PageSize + PageSize/2); got != want[pn] {
			t.Errorf("Written(page %d) = %v, want %v", pn, got, want[pn])
		}
	}
	if m.PageCount() != len(want) {
		t.Errorf("%d pages, want %d", m.PageCount(), len(want))
	}
	m.Reset()
	for pn := range want {
		if m.Written(pn * PageSize) {
			t.Errorf("page %d written after Reset", pn)
		}
	}
}
