package secmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"authpoint/internal/cryptoengine/mactree"
)

// memoSegs fill the text and data of sealRegions, whose probe window and
// stack stay all zeroes and so are served from the memo.
var memoSegs = []Segment{{0x1010, bytes.Repeat([]byte("text-segment."), 23)}, {0x4000, bytes.Repeat([]byte{0xd7}, 100)}}

// memoEntryB is the bytes an all-zero memo entry for n bytes of protected
// range holds under the default configuration: 64-byte lines, 8-byte MACs
// and 8-byte counters.
func memoEntryB(n uint64) int { return int(n) / 64 * (64 + 8 + 8) }

type (
	zeroMemo  = memo[zeroSealKey, *zeroSeal]
	imageMemo = memo[imageKey, *sealedImage]
)

func newZeroMemo(capB int) *zeroMemo   { return newMemo[zeroSealKey, *zeroSeal](capB) }
func newImageMemo(capB int) *imageMemo { return newMemo[imageKey, *sealedImage](capB) }

// sealLayout seals sealRegions on a fresh controller that takes all-zero
// ranges from zero and whole layouts from images; a nil memo is not
// consulted.
func sealLayout(zero *zeroMemo, images *imageMemo, mutate func(*Config)) (*rig, error) {
	r, err := buildRig(mutate)
	if err != nil {
		return nil, err
	}
	r.ctrl.seals, r.ctrl.images = zero, images
	for _, reg := range sealRegions {
		if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
			return nil, err
		}
	}
	return r, r.ctrl.FinishProtection(memoSegs...)
}

func mustSeal(t *testing.T, zero *zeroMemo, images *imageMemo, mutate func(*Config)) *rig {
	t.Helper()
	r, err := sealLayout(zero, images, mutate)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A range served from the memo seals bit-identically to one sealed line by
// line, both on the build that fills the memo entry (a miss) and on a later
// build that finds it (a hit).
func TestZeroSealMemoHitEqualsMiss(t *testing.T) {
	for _, tree := range []bool{false, true} {
		for _, covers := range []bool{true, false} {
			where := fmt.Sprintf("tree=%v macCoversCounter=%v", tree, covers)
			mutate := func(c *Config) { c.UseTree, c.MacCoversCounter = tree, covers }
			memo := newZeroMemo(zeroSealCapB)
			want := mustSeal(t, nil, nil, mutate)
			miss := mustSeal(t, memo, nil, mutate)
			if n := len(memo.entries); n != 2 {
				t.Fatalf("%s: memo holds %d ranges after the first build, want 2 (probe, stack)", where, n)
			}
			hit := mustSeal(t, memo, nil, mutate)
			for _, b := range []struct {
				name string
				r    *rig
			}{{"miss", miss}, {"hit", hit}} {
				if d := imageDiff(b.r, want); d != "" {
					t.Errorf("%s, memo %s: %s", where, b.name, d)
				}
			}
		}
	}
}

// Tampering with a controller's memory, MAC store, counters or tree after
// its ranges came from a memo does not reach the memo: a controller built
// afterwards still seals the untampered image. With the image memo the
// first controller filled the entry, the second was served from it, and
// both are tampered, at a stack line the all-zero memo sealed and at a text
// line only the image memo holds.
func TestZeroSealMemoNotAliased(t *testing.T) {
	tamper := func(r *rig, line uint64) {
		r.m.XorRange(line, bytes.Repeat([]byte{0xff}, 64))
		if ma, ok := r.ctrl.MacAddrOf(line); ok {
			r.m.XorRange(ma, []byte{0x01})
		}
		r.ctrl.Encryptor().SetCounter(line, 7)
		if tr := r.ctrl.Tree(); tr != nil {
			idx, _ := r.ctrl.LeafIndex(line)
			tr.TamperNode(mactree.NodeID{Level: 0, Index: idx}, []byte{0x01})
			tr.TamperNode(mactree.NodeID{Level: 1, Index: idx / tr.Arity()}, []byte{0x01})
		}
	}
	for _, tree := range []bool{false, true} {
		for _, withImages := range []bool{false, true} {
			where := fmt.Sprintf("tree=%v image memo=%v", tree, withImages)
			mutate := func(c *Config) { c.UseTree = tree }
			zero := newZeroMemo(zeroSealCapB)
			var images *imageMemo
			if withImages {
				images = newImageMemo(imageCapB)
			}
			want := mustSeal(t, nil, nil, mutate)
			for build := 0; build < 3; build++ {
				r := mustSeal(t, zero, images, mutate)
				if d := imageDiff(r, want); d != "" {
					t.Fatalf("%s: controller %d, built after %d tampered ones: %s", where, build, build, d)
				}
				tamper(r, 0x7040)
				tamper(r, 0x1040)
				if imageDiff(r, want) == "" {
					t.Fatalf("%s: tampering left the image unchanged", where)
				}
			}
			if withImages && len(images.entries) != 1 {
				t.Errorf("%s: image memo holds %d entries, want 1", where, len(images.entries))
			}
		}
	}
}

// Controllers sealing at once share the memo safely: eight goroutines, half
// with the MAC tree, build the layout together from an empty memo, and each
// seals the image a line-by-line seal gives. Run it under -race.
func TestZeroSealMemoConcurrent(t *testing.T) {
	const workers = 8
	treeMode := func(g int) func(*Config) {
		return func(c *Config) { c.UseTree = g%2 == 1 }
	}
	want := []*rig{mustSeal(t, nil, nil, treeMode(0)), mustSeal(t, nil, nil, treeMode(1))}
	memo := newZeroMemo(zeroSealCapB)
	rigs := make([]*rig, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rigs[g], errs[g] = sealLayout(memo, nil, treeMode(g))
		}()
	}
	wg.Wait()
	for g, r := range rigs {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		if d := imageDiff(r, want[g%2]); d != "" {
			t.Errorf("worker %d: %s", g, d)
		}
	}
	if n, b, want := len(memo.entries), memo.bytes, memoEntryB(256)+memoEntryB(0x400); n != 2 || b != want {
		t.Errorf("memo holds %d entries, %d bytes; want 2 entries, %d bytes", n, b, want)
	}
}

// Past the byte cap a range is sealed line by line, as without the memo,
// and the memo stays within the cap.
func TestZeroSealMemoCap(t *testing.T) {
	probeB := memoEntryB(256) // the probe window's entry; the stack's is larger
	memo := newZeroMemo(probeB)
	got := mustSeal(t, memo, nil, nil)
	if n := len(memo.entries); n != 1 || memo.bytes != probeB {
		t.Fatalf("memo holds %d entries, %d bytes; want only the probe window's %d", n, memo.bytes, probeB)
	}
	if d := imageDiff(got, mustSeal(t, nil, nil, nil)); d != "" {
		t.Error(d)
	}
}
