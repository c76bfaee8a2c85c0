package secmem

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// A layout served from the image memo seals bit-identically to one sealed
// line by line, on the build that fills the entry (a miss) and on a later
// build that finds it (a hit), and the hit counts the crypto work of the
// miss. A segment byte changed is another entry.
func TestImageMemoHitEqualsMiss(t *testing.T) {
	for _, tree := range []bool{false, true} {
		for _, covers := range []bool{true, false} {
			where := fmt.Sprintf("tree=%v macCoversCounter=%v", tree, covers)
			mutate := func(c *Config) { c.UseTree, c.MacCoversCounter = tree, covers }
			zero, images := newZeroMemo(zeroSealCapB), newImageMemo(imageCapB)
			want := mustSeal(t, nil, nil, mutate)
			miss := mustSeal(t, zero, images, mutate)
			if n := len(images.entries); n != 1 {
				t.Fatalf("%s: image memo holds %d entries after the first build, want 1", where, n)
			}
			hit := mustSeal(t, zero, images, mutate)
			for _, b := range []struct {
				name string
				r    *rig
			}{{"miss", miss}, {"hit", hit}} {
				if d := imageDiff(b.r, want); d != "" {
					t.Errorf("%s, memo %s: %s", where, b.name, d)
				}
			}
			ms, hs := miss.ctrl.Stats(), hit.ctrl.Stats()
			if ms.AESBlocks != hs.AESBlocks || ms.MACs != hs.MACs {
				t.Errorf("%s: miss counts %d AES blocks, %d MACs; hit %d, %d", where, ms.AESBlocks, ms.MACs, hs.AESBlocks, hs.MACs)
			}

			r, err := buildRig(mutate)
			if err != nil {
				t.Fatal(err)
			}
			r.ctrl.seals, r.ctrl.images = zero, images
			for _, reg := range sealRegions {
				if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
					t.Fatal(err)
				}
			}
			data := bytes.Clone(memoSegs[1].Data)
			data[99] ^= 1
			if err := r.ctrl.FinishProtection(memoSegs[0], Segment{memoSegs[1].Addr, data}); err != nil {
				t.Fatal(err)
			}
			if n := len(images.entries); n != 2 {
				t.Errorf("%s: image memo holds %d entries after a changed data byte, want 2", where, n)
			}
			if plain, _ := r.ctrl.ReadPlain(memoSegs[1].Addr, len(data)); !bytes.Equal(plain, data) {
				t.Errorf("%s: changed data segment reads back %x, want %x", where, plain, data)
			}
		}
	}
}

// The image memo's key changes with every input of the seal: either key,
// the line and MAC sizes, MacCoversCounter, the MAC mode, the protected
// ranges, and a segment's address or bytes.
func TestImageMemoKeyCoversSealInputs(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Config)
		keys   [2][]byte
		extra  bool // protect one more range
		segs   []Segment
	}
	shifted := []Segment{{memoSegs[0].Addr + 8, memoSegs[0].Data}, memoSegs[1]}
	flipped := []Segment{memoSegs[0], {memoSegs[1].Addr, append(bytes.Clone(memoSegs[1].Data[:99]), memoSegs[1].Data[99]^1)}}
	otherKey := bytes.Repeat([]byte{0x33}, 32)
	variants := []variant{
		{name: "reference"},
		{name: "encryption key", keys: [2][]byte{otherKey, nil}},
		{name: "MAC key", keys: [2][]byte{nil, otherKey}},
		{name: "line size", mutate: func(c *Config) { c.LineB = 128 }},
		{name: "MAC size", mutate: func(c *Config) { c.MacB = 16 }},
		{name: "MacCoversCounter", mutate: func(c *Config) { c.MacCoversCounter = false }},
		{name: "MAC tree", mutate: func(c *Config) { c.UseTree = true }},
		{name: "ranges", extra: true},
		{name: "segment address", segs: shifted},
		{name: "segment byte", segs: flipped},
	}
	seen := map[imageKey]string{}
	for _, v := range variants {
		cfg := DefaultConfig()
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		ek, mk := encKey, macKey
		if v.keys[0] != nil {
			ek = v.keys[0]
		}
		if v.keys[1] != nil {
			mk = v.keys[1]
		}
		r := newRig(t, nil)
		c, err := New(cfg, r.m, r.b, r.d, ek, mk)
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range sealRegions {
			if err := c.Protect(reg[0], reg[1]); err != nil {
				t.Fatal(err)
			}
		}
		if v.extra {
			if err := c.Protect(0xa000, 0x100); err != nil {
				t.Fatal(err)
			}
		}
		segs := memoSegs
		if v.segs != nil {
			segs = v.segs
		}
		k := c.imageKey(segs)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: same image key as %s", v.name, prev)
		}
		seen[k] = v.name
	}
}

// The image memo holds at most its cap: a new entry evicts the least
// recently used ones, and a hit makes an entry the most recently used.
// Besides them it holds the last entry larger than the cap: a second build
// of that layout is a hit, bit-identical to a line-by-line seal and
// counting the miss's crypto work, and the next larger entry replaces it,
// while the capped entries and their byte charge stay as they were.
func TestImageMemoEvictsLeastRecentlyUsed(t *testing.T) {
	layout := func(b byte) []Segment {
		return []Segment{memoSegs[0], {memoSegs[1].Addr, bytes.Repeat([]byte{b}, 100)}}
	}
	// A big layout adds a 64-line range that a segment fills.
	bigRegions := append(slices.Clone(sealRegions), [2]uint64{0xa000, 0x1000})
	big := func(b byte) []Segment {
		return append(layout(b), Segment{0xa000, bytes.Repeat([]byte{b}, 0x1000)})
	}
	sealed := 0
	testHookSeal = func(miss bool) {
		if miss {
			sealed++
		}
	}
	defer func() { testHookSeal = nil }()
	// seal builds a controller over the regions that takes whole layouts
	// from images; with no image memo, it seals every line.
	seal := func(images *imageMemo, regions [][2]uint64, segs []Segment) *rig {
		t.Helper()
		r := newRig(t, nil)
		r.ctrl.seals, r.ctrl.images = newZeroMemo(zeroSealCapB), images
		if images == nil {
			r.ctrl.seals = nil
		}
		for _, reg := range regions {
			if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.ctrl.FinishProtection(segs...); err != nil {
			t.Fatal(err)
		}
		return r
	}
	probe := newImageMemo(imageCapB)
	seal(probe, sealRegions, layout('a'))
	entryB := probe.bytes
	if entryB == 0 {
		t.Fatal("an entry charged no bytes")
	}

	images := newImageMemo(2 * entryB)
	keyOf := func(regions [][2]uint64, segs []Segment) imageKey {
		return seal(nil, regions, segs).ctrl.imageKey(segs)
	}
	a, b, c := layout('a'), layout('b'), layout('c')
	seal(images, sealRegions, a)
	seal(images, sealRegions, b)
	seal(images, sealRegions, a) // a hit: b is now the least recently used
	seal(images, sealRegions, c)
	for _, x := range []struct {
		name string
		segs []Segment
		held bool
	}{{"a", a, true}, {"b", b, false}, {"c", c, true}} {
		if _, ok := images.entries[keyOf(sealRegions, x.segs)]; ok != x.held {
			t.Errorf("layout %s held = %v, want %v", x.name, ok, x.held)
		}
	}
	if images.bytes > images.capB || images.bytes != 2*entryB {
		t.Errorf("memo charges %d bytes under a cap of %d, want %d", images.bytes, images.capB, 2*entryB)
	}

	lru := map[imageKey]memoEntry[*sealedImage]{}
	for k, e := range images.entries {
		lru[k] = *e
	}
	x, y := big('x'), big('y')
	want, keyX, keyY := seal(nil, bigRegions, x), keyOf(bigRegions, x), keyOf(bigRegions, y)
	sealed = 0
	miss := seal(images, bigRegions, x)
	if !images.over.ok || images.over.k != keyX {
		t.Fatal("the layout over the cap is not held")
	}
	hit := seal(images, bigRegions, x)
	if sealed != 1 {
		t.Errorf("two builds of the layout over the cap sealed %d times, want 1", sealed)
	}
	for _, r := range []struct {
		name string
		r    *rig
	}{{"miss", miss}, {"hit", hit}} {
		if d := imageDiff(r.r, want); d != "" {
			t.Errorf("layout over the cap, %s: %s", r.name, d)
		}
	}
	if ms, hs := miss.ctrl.Stats(), hit.ctrl.Stats(); ms.AESBlocks != hs.AESBlocks || ms.MACs != hs.MACs {
		t.Errorf("layout over the cap: miss counts %d AES blocks, %d MACs; hit %d, %d", ms.AESBlocks, ms.MACs, hs.AESBlocks, hs.MACs)
	}
	sealed = 0
	seal(images, bigRegions, y)
	if images.over.k != keyY {
		t.Error("a second layout over the cap does not replace the first")
	}
	seal(images, bigRegions, x)
	if sealed != 2 {
		t.Errorf("after the second layout over the cap, x was not sealed again (%d seals, want 2)", sealed)
	}
	if images.bytes != 2*entryB || len(images.entries) != len(lru) {
		t.Errorf("memo holds %d entries, %d bytes under the cap; want %d, %d", len(images.entries), images.bytes, len(lru), 2*entryB)
	}
	for k, e := range images.entries {
		if w, ok := lru[k]; !ok || *e != w {
			t.Error("a layout over the cap changed the entries under it")
		}
	}
}
