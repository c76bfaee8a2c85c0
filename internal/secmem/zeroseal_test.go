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

// memoEntryB is the bytes a memo entry for n bytes of protected range
// holds under the default configuration: 64-byte lines, 8-byte MACs.
func memoEntryB(n uint64) int { return int(n) / 64 * (64 + 8) }

// sealLayout seals sealRegions on a fresh controller that takes all-zero
// ranges from memo, or seals every line afresh if memo is nil.
func sealLayout(memo *sealMemo, mutate func(*Config)) (*rig, error) {
	r, err := buildRig(mutate)
	if err != nil {
		return nil, err
	}
	r.ctrl.seals = memo
	for _, reg := range sealRegions {
		if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
			return nil, err
		}
	}
	return r, r.ctrl.FinishProtection(memoSegs...)
}

func mustSeal(t *testing.T, memo *sealMemo, mutate func(*Config)) *rig {
	t.Helper()
	r, err := sealLayout(memo, mutate)
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
			memo := newSealMemo(zeroSealCapB)
			want := mustSeal(t, nil, mutate)
			miss := mustSeal(t, memo, mutate)
			if n := len(memo.entries); n != 2 {
				t.Fatalf("%s: memo holds %d ranges after the first build, want 2 (probe, stack)", where, n)
			}
			hit := mustSeal(t, memo, mutate)
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
// its ranges came from the memo does not reach the memo: a controller built
// afterwards still seals the untampered image.
func TestZeroSealMemoNotAliased(t *testing.T) {
	const line = 0x7040 // a stack line
	for _, tree := range []bool{false, true} {
		mutate := func(c *Config) { c.UseTree = tree }
		memo := newSealMemo(zeroSealCapB)
		want := mustSeal(t, nil, mutate)
		r := mustSeal(t, memo, mutate)
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
		if imageDiff(r, want) == "" {
			t.Fatalf("tree=%v: tampering left the image unchanged", tree)
		}
		if d := imageDiff(mustSeal(t, memo, mutate), want); d != "" {
			t.Errorf("tree=%v: controller built after the tampering: %s", tree, d)
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
	want := []*rig{mustSeal(t, nil, treeMode(0)), mustSeal(t, nil, treeMode(1))}
	memo := newSealMemo(zeroSealCapB)
	rigs := make([]*rig, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rigs[g], errs[g] = sealLayout(memo, treeMode(g))
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
	memo := newSealMemo(probeB)
	got := mustSeal(t, memo, nil)
	if n := len(memo.entries); n != 1 || memo.bytes != probeB {
		t.Fatalf("memo holds %d entries, %d bytes; want only the probe window's %d", n, memo.bytes, probeB)
	}
	if d := imageDiff(got, mustSeal(t, nil, nil)); d != "" {
		t.Error(d)
	}
}
