package secmem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"authpoint/internal/cryptoengine/mactree"

	"authpoint/internal/bus"
	"authpoint/internal/dram"
	"authpoint/internal/mem"
)

var (
	encKey = bytes.Repeat([]byte{0x11}, 32)
	macKey = bytes.Repeat([]byte{0x22}, 32)
)

type rig struct {
	m    *mem.Memory
	b    *bus.Bus
	d    *dram.DRAM
	ctrl *Controller
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	r, err := buildRig(mutate)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// buildRig is newRig for a caller that may not call t.Fatal, such as a
// goroutine the test starts.
func buildRig(mutate func(*Config)) (*rig, error) {
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	m := mem.New()
	b := bus.MustNew(bus.Default())
	d := dram.MustNew(dram.Default())
	ctrl, err := New(cfg, m, b, d, encKey, macKey)
	if err != nil {
		return nil, err
	}
	// A rig seals every layout afresh unless a test hands it a memo: a hit
	// in the process-wide image memo would test the memo, not the seal.
	ctrl.images = nil
	return &rig{m: m, b: b, d: d, ctrl: ctrl}, nil
}

func protect(t *testing.T, r *rig, start, n uint64) {
	t.Helper()
	if err := r.ctrl.Protect(start, n); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.FinishProtection(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	m, b, d := mem.New(), bus.MustNew(bus.Default()), dram.MustNew(dram.Default())
	bad := []func(*Config){
		func(c *Config) { c.LineB = 0 },
		func(c *Config) { c.LineB = 48 },
		func(c *Config) { c.DecryptLat = -1 },
		func(c *Config) { c.MacB = 0 },
		func(c *Config) { c.MacB = 33 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg, m, b, d, encKey, macKey); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestProtectValidation(t *testing.T) {
	r := newRig(t, nil)
	if err := r.ctrl.Protect(0x1001, 64); err == nil {
		t.Error("unaligned start accepted")
	}
	if err := r.ctrl.Protect(0x1000, 65); err == nil {
		t.Error("unaligned length accepted")
	}
	if err := r.ctrl.Protect(0x1000, 128); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Protect(0x1000, 64); err == nil {
		t.Error("overlapping protection accepted")
	}
	if !r.ctrl.IsProtected(0x1000) || !r.ctrl.IsProtected(0x107f) {
		t.Error("range not protected")
	}
	if r.ctrl.IsProtected(0x1080) {
		t.Error("address past range protected")
	}
}

func TestLoadPlainRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	msg := []byte("the quick brown fox jumps over the lazy dog -- protected bytes")
	if err := r.ctrl.LoadPlain(0x1234, msg); err != nil { // deliberately unaligned
		t.Fatal(err)
	}
	got, err := r.ctrl.ReadPlain(0x1234, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	// Ciphertext at rest differs from plaintext.
	raw := r.m.Read(0x1234, len(msg))
	if bytes.Equal(raw, msg) {
		t.Fatal("plaintext visible in external memory")
	}
	if err := r.ctrl.LoadPlain(0x9000, []byte("x")); err == nil {
		t.Error("LoadPlain outside protection accepted")
	}
	// ReadPlain rejects a line outside protection, and a read that runs
	// past the range's end, naming the first unprotected line.
	for _, rd := range []struct {
		addr uint64
		n    int
		line string
	}{{0x9000, 16, "0x9000"}, {0x1ff0, 32, "0x2000"}} {
		got, err := r.ctrl.ReadPlain(rd.addr, rd.n)
		if err == nil || !strings.Contains(err.Error(), rd.line) {
			t.Errorf("ReadPlain(%#x, %d) = %x, %v; want an error naming line %s", rd.addr, rd.n, got, err, rd.line)
		}
	}
}

// sealRegions are protected in the order sim.NewMachineWithRegions
// protects them: a probe window first, then text, data and stack.
var sealRegions = [][2]uint64{{0x9000, 256}, {0x1000, 0x200}, {0x4000, 0x80}, {0x7000, 0x400}}

// Leaves number the protected lines in protection order, each range's lines
// consecutively: LeafIndex and, with flat MACs, MacAddrOf follow that
// numbering over the sealRegions layout, and both miss for an unaligned
// address, an unprotected line and the line one past a range's end.
func TestLeafIndexFollowsProtectionOrder(t *testing.T) {
	for _, tree := range []bool{false, true} {
		r := newRig(t, func(c *Config) { c.UseTree = tree })
		for _, reg := range sealRegions {
			if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.ctrl.FinishProtection(); err != nil {
			t.Fatal(err)
		}
		lb, macB := uint64(r.ctrl.cfg.LineB), uint64(r.ctrl.cfg.MacB)
		leaf := 0
		miss := []uint64{0, 0x8000, 0xffc0}
		for _, reg := range sealRegions {
			for a := reg[0]; a < reg[0]+reg[1]; a += lb {
				if got, ok := r.ctrl.LeafIndex(a); !ok || got != leaf {
					t.Errorf("tree=%v: LeafIndex(%#x) = %d, %v, want %d", tree, a, got, ok, leaf)
				}
				ma, ok := r.ctrl.MacAddrOf(a)
				if want := MacBase + uint64(leaf)*macB; ok == tree || !tree && ma != want {
					t.Errorf("tree=%v: MacAddrOf(%#x) = %#x, %v, want %#x, %v", tree, a, ma, ok, want, !tree)
				}
				leaf++
			}
			miss = append(miss, reg[0]+8, reg[0]+reg[1]-lb+1, reg[0]+reg[1])
		}
		for _, a := range miss {
			if got, ok := r.ctrl.LeafIndex(a); ok {
				t.Errorf("tree=%v: LeafIndex(%#x) = %d, want a miss", tree, a, got)
			}
			if ma, ok := r.ctrl.MacAddrOf(a); ok {
				t.Errorf("tree=%v: MacAddrOf(%#x) = %#x, want a miss", tree, a, ma)
			}
		}
	}
}

// Sealing with segments must leave exactly the image a zero seal followed by
// LoadPlain of each segment does: every protected line's ciphertext and
// counter, every flat MAC, and every tree node and the root.
func TestFinishProtectionSegmentsMatchLoadPlain(t *testing.T) {
	text := bytes.Repeat([]byte("text-segment."), 23) // 299 bytes
	data := bytes.Repeat([]byte{0xd7}, 100)
	cases := []struct {
		name string
		segs []Segment
	}{
		{"unaligned text, data ending mid-line", []Segment{{0x1010, text}, {0x4000, data}}},
		{"empty data segment", []Segment{{0x1010, text}, {0x4020, nil}}},
		{"overlapping segments", []Segment{{0x1000, text}, {0x1020, data}}},
		{"no segments", nil},
	}
	for _, tree := range []bool{false, true} {
		for _, tc := range cases {
			build := func(onePass bool) *rig {
				r := newRig(t, func(c *Config) { c.UseTree = tree })
				for _, reg := range sealRegions {
					if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
						t.Fatal(err)
					}
				}
				if onePass {
					if err := r.ctrl.FinishProtection(tc.segs...); err != nil {
						t.Fatal(err)
					}
					return r
				}
				if err := r.ctrl.FinishProtection(); err != nil {
					t.Fatal(err)
				}
				for _, s := range tc.segs {
					if err := r.ctrl.LoadPlain(s.Addr, s.Data); err != nil {
						t.Fatal(err)
					}
				}
				return r
			}
			got, want := build(true), build(false)
			where := fmt.Sprintf("tree=%v %s", tree, tc.name)
			if d := imageDiff(got, want); d != "" {
				t.Fatalf("%s: %s", where, d)
			}
			if tc.name == "empty data segment" {
				if c := got.ctrl.enc.Counter(0x4000); c != 1 {
					t.Errorf("%s: empty segment left its line at counter %d, want 1", where, c)
				}
			}
		}
	}
}

// imageDiff describes the first difference between two sealed images of
// one layout — a protected line's ciphertext, counter or flat MAC, a tree
// node, or the root — or returns "" if they are identical.
func imageDiff(got, want *rig) string {
	gotLines, wantLines := leafLines(got.ctrl), leafLines(want.ctrl)
	if len(gotLines) != len(wantLines) {
		return fmt.Sprintf("%d protected lines, want %d", len(gotLines), len(wantLines))
	}
	lineB, macB := want.ctrl.cfg.LineB, want.ctrl.cfg.MacB
	for i, la := range wantLines {
		if g := gotLines[i]; g != la {
			return fmt.Sprintf("leaf %d is line %#x, want %#x", i, g, la)
		}
		if g, w := got.m.Read(la, lineB), want.m.Read(la, lineB); !bytes.Equal(g, w) {
			return fmt.Sprintf("line %#x ciphertext %x, want %x", la, g, w)
		}
		if g, w := got.ctrl.enc.Counter(la), want.ctrl.enc.Counter(la); g != w {
			return fmt.Sprintf("line %#x counter %d, want %d", la, g, w)
		}
		if ma, ok := want.ctrl.MacAddrOf(la); ok {
			if g, w := got.m.Read(ma, macB), want.m.Read(ma, macB); !bytes.Equal(g, w) {
				return fmt.Sprintf("line %#x MAC %x, want %x", la, g, w)
			}
		}
	}
	gt, wt := got.ctrl.Tree(), want.ctrl.Tree()
	if (gt == nil) != (wt == nil) {
		return "MAC tree present in one image only"
	}
	if wt == nil {
		return ""
	}
	for l := 0; l < wt.Levels(); l++ {
		for i := 0; i < wt.NodeCount(l); i++ {
			id := mactree.NodeID{Level: l, Index: i}
			if !bytes.Equal(gt.Node(id), wt.Node(id)) {
				return fmt.Sprintf("tree node %v differs", id)
			}
		}
	}
	if !bytes.Equal(gt.Root(), wt.Root()) {
		return "tree root differs"
	}
	return ""
}

// leafLines lists a controller's protected lines in leaf order: each
// protected range's lines, ranges in protection order.
func leafLines(c *Controller) []uint64 {
	var out []uint64
	for _, r := range c.protected {
		for a := r.start; a < r.end; a += uint64(c.cfg.LineB) {
			out = append(out, a)
		}
	}
	return out
}

// A Protect rejected for overlapping a protected range changes nothing:
// IsProtected, LeafIndex and the sealed image are as if it was never made.
func TestProtectRejectedLeavesNoTrace(t *testing.T) {
	for _, tree := range []bool{false, true} {
		build := func(reject bool) *rig {
			r := newRig(t, func(c *Config) { c.UseTree = tree })
			for _, reg := range [][2]uint64{{0x1000, 0x100}, {0x3000, 0x100}} {
				if err := r.ctrl.Protect(reg[0], reg[1]); err != nil {
					t.Fatal(err)
				}
			}
			if reject {
				// Two new lines, then the first line of [0x3000,+0x100).
				err := r.ctrl.Protect(0x2f80, 0x100)
				if err == nil || !strings.Contains(err.Error(), "0x3000") {
					t.Fatalf("overlapping Protect: err %v, want line 0x3000 named", err)
				}
			}
			if err := r.ctrl.FinishProtection(); err != nil {
				t.Fatal(err)
			}
			return r
		}
		got, want := build(true), build(false)
		for a := uint64(0xf00); a < 0x3200; a += 0x40 {
			if g, w := got.ctrl.IsProtected(a), want.ctrl.IsProtected(a); g != w {
				t.Errorf("tree=%v: IsProtected(%#x) = %v, want %v", tree, a, g, w)
			}
			gi, gok := got.ctrl.LeafIndex(a)
			wi, wok := want.ctrl.LeafIndex(a)
			if gi != wi || gok != wok {
				t.Errorf("tree=%v: LeafIndex(%#x) = %d, %v, want %d, %v", tree, a, gi, gok, wi, wok)
			}
		}
		if d := imageDiff(got, want); d != "" {
			t.Errorf("tree=%v: %s", tree, d)
		}
	}
}

func TestFinishProtectionRejectsUnprotectedSegment(t *testing.T) {
	for _, seg := range []Segment{
		{0x8000, []byte{1}},                   // wholly outside
		{0x1030, bytes.Repeat([]byte{2}, 32)}, // runs past the region's end
	} {
		r := newRig(t, nil)
		if err := r.ctrl.Protect(0x1000, 64); err != nil {
			t.Fatal(err)
		}
		if err := r.ctrl.FinishProtection(seg); err == nil {
			t.Errorf("segment at %#x (+%d) outside the protected region accepted", seg.Addr, len(seg.Data))
		}
	}
}

func TestFetchReturnsPlaintextAndTiming(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	want := bytes.Repeat([]byte{0xa5}, 64)
	if err := r.ctrl.LoadPlain(0x1000, want); err != nil {
		t.Fatal(err)
	}
	res, err := r.ctrl.Fetch(100, 0x1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("fetched plaintext wrong")
	}
	if !res.AuthOK || res.AuthIdx != 1 {
		t.Fatalf("auth: ok=%v idx=%d", res.AuthOK, res.AuthIdx)
	}
	if !(100 < res.AddrVisible && res.AddrVisible < res.DataReady) {
		t.Fatalf("ordering: addr=%d data=%d", res.AddrVisible, res.DataReady)
	}
	if res.PlainReady < res.DataReady {
		t.Fatal("plaintext before data arrived")
	}
	if res.AuthDone <= res.PlainReady {
		t.Fatal("authentication should lag decryption (Table 1 gap)")
	}
	done, ok := r.ctrl.DoneAt(1)
	if done != res.AuthDone || !ok {
		t.Fatal("DoneAt mismatch")
	}
}

func TestAuthQueueInOrderCompletion(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 1<<14)
	var prev uint64
	for i := 0; i < 8; i++ {
		res, err := r.ctrl.Fetch(uint64(i*10), 0x1000+uint64(i*64), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.AuthDone <= prev {
			t.Fatalf("fetch %d: authDone %d not after previous %d", i, res.AuthDone, prev)
		}
		prev = res.AuthDone
		if res.AuthIdx != uint64(i+1) {
			t.Fatalf("fetch %d: idx %d", i, res.AuthIdx)
		}
	}
	if r.ctrl.LastRequest() != 8 {
		t.Fatalf("LastRequest %d", r.ctrl.LastRequest())
	}
}

func TestTamperDetected(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	r.ctrl.LoadPlain(0x1040, bytes.Repeat([]byte{7}, 64))
	// Adversary flips a ciphertext bit.
	r.m.XorRange(0x1040, []byte{0x01})
	res, err := r.ctrl.Fetch(0, 0x1040, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuthOK {
		t.Fatal("tampered line verified")
	}
	// Malleability: the decrypted data has exactly the flipped bit.
	if res.Data[0] != 7^0x01 {
		t.Fatalf("malleability: got %#x", res.Data[0])
	}
	f := r.ctrl.Fault()
	if f == nil || f.Addr != 0x1040 || f.Cycle != res.AuthDone {
		t.Fatalf("fault %+v", f)
	}
	if _, ok := r.ctrl.DoneAt(res.AuthIdx); ok {
		t.Fatal("DoneAt should report failure")
	}
	if r.ctrl.Stats().AuthFailures != 1 {
		t.Fatal("failure not counted")
	}
}

func TestMacTamperDetected(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	// Flip a bit of the stored MAC of leaf 0 instead of the data.
	r.m.XorRange(MacBase, []byte{0x80})
	res, _ := r.ctrl.Fetch(0, 0x1000, 0)
	if res.AuthOK {
		t.Fatal("line with tampered MAC verified")
	}
}

func TestBaselineNoAuthentication(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Authenticate = false })
	protect(t, r, 0x1000, 4096)
	res, err := r.ctrl.Fetch(0, 0x1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuthIdx != 0 || res.AuthDone != res.PlainReady {
		t.Fatalf("baseline should not authenticate: %+v", res)
	}
	if r.ctrl.Stats().AuthRequests != 0 {
		t.Fatal("baseline issued auth requests")
	}
	// Even a tampered line sails through (that is the vulnerability).
	r.m.XorRange(0x1040, []byte{0xff})
	res, _ = r.ctrl.Fetch(0, 0x1040, 0)
	if !res.AuthOK {
		t.Fatal("baseline reported failure")
	}
}

func TestCounterCacheMissDelaysPad(t *testing.T) {
	// Tiny counter cache so the first access misses.
	r := newRig(t, func(c *Config) { c.CtrCacheB = 1 << 10 })
	protect(t, r, 0x1000, 1<<13)
	res1, _ := r.ctrl.Fetch(0, 0x1000, 0)
	s := r.ctrl.Stats()
	if s.CtrMisses != 1 {
		t.Fatalf("ctr misses %d", s.CtrMisses)
	}
	// Second fetch of the same line: counter cache hit, pad overlaps fetch.
	res2, _ := r.ctrl.Fetch(res1.AuthDone, 0x1000, 0)
	if r.ctrl.Stats().CtrHits != 1 {
		t.Fatal("no ctr hit on refetch")
	}
	lat1 := res1.PlainReady - 0
	lat2 := res2.PlainReady - res1.AuthDone
	if lat2 >= lat1 {
		t.Fatalf("ctr hit should shorten plaintext latency: %d vs %d", lat2, lat1)
	}
}

func TestEarliestBusStartHonored(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	res, _ := r.ctrl.Fetch(10, 0x1000, 5000)
	if res.AddrVisible < 5000 {
		t.Fatalf("address visible at %d despite then-fetch constraint 5000", res.AddrVisible)
	}
}

func TestWriteBackRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	line := bytes.Repeat([]byte{0x3c}, 64)
	done, err := r.ctrl.WriteBack(50, 0x1080, line)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 50 {
		t.Fatal("writeback took no time")
	}
	res, err := r.ctrl.Fetch(done, 0x1080, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, line) || !res.AuthOK {
		t.Fatal("written line did not verify on refetch")
	}
	if _, err := r.ctrl.WriteBack(0, 0x9000, line); err == nil {
		t.Error("writeback outside protection accepted")
	}
}

// Replay: restore old ciphertext + old MAC after a write. The MAC covers the
// line counter, so the flat scheme already detects this form of replay.
func TestReplayOldLineAndMacDetected(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	r.ctrl.LoadPlain(0x1000, bytes.Repeat([]byte{1}, 64))
	oldCT := r.m.Snapshot(0x1000, 64)
	oldMAC := r.m.Snapshot(MacBase, 8)
	r.ctrl.WriteBack(0, 0x1000, bytes.Repeat([]byte{2}, 64))
	r.m.Write(0x1000, oldCT)
	r.m.Write(MacBase, oldMAC)
	res, _ := r.ctrl.Fetch(1000, 0x1000, 0)
	if res.AuthOK {
		t.Fatal("replayed line+MAC accepted")
	}
}

func TestFetchUnprotectedErrors(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 64)
	if _, err := r.ctrl.Fetch(0, 0x2000, 0); err == nil {
		t.Error("fetch of unprotected line accepted")
	}
}

func TestDoneAtBounds(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 64)
	if cyc, ok := r.ctrl.DoneAt(0); cyc != 0 || !ok {
		t.Error("DoneAt(0)")
	}
	if err := r.ctrl.Err(); err != nil {
		t.Fatalf("fresh controller reports model error: %v", err)
	}
	// Past LastRequest: a model inconsistency, but not a process-killing
	// panic — the call reports not-done and records a sticky error for
	// sim.Machine.Run to surface as a failed run.
	if cyc, ok := r.ctrl.DoneAt(1); cyc != 0 || ok {
		t.Errorf("DoneAt(1) = (%d, %v), want (0, false)", cyc, ok)
	}
	err := r.ctrl.Err()
	if err == nil || !strings.Contains(err.Error(), "DoneAt(1)") {
		t.Fatalf("out-of-range DoneAt not recorded: %v", err)
	}
	// Sticky: the first inconsistency wins.
	r.ctrl.DoneAt(9)
	if got := r.ctrl.Err(); got != err {
		t.Fatalf("later inconsistency overwrote the first: %v", got)
	}
}

func TestTreeModeVerifies(t *testing.T) {
	r := newRig(t, func(c *Config) { c.UseTree = true })
	protect(t, r, 0x1000, 1<<14) // 256 lines
	r.ctrl.LoadPlain(0x1000, bytes.Repeat([]byte{9}, 64))
	res, err := r.ctrl.Fetch(0, 0x1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuthOK {
		t.Fatal("tree verification failed on honest line")
	}
	// Tree verification is slower than a flat MAC.
	flat := newRig(t, nil)
	protect(t, flat, 0x1000, 1<<14)
	fres, _ := flat.ctrl.Fetch(0, 0x1000, 0)
	if res.AuthDone-res.DataReady <= fres.AuthDone-fres.DataReady {
		t.Fatal("tree should cost more verification latency than flat MAC")
	}
}

func TestTreeModeTamperAndCacheWarmup(t *testing.T) {
	r := newRig(t, func(c *Config) { c.UseTree = true })
	protect(t, r, 0x1000, 1<<14)
	res1, _ := r.ctrl.Fetch(0, 0x1000, 0)
	if !res1.AuthOK {
		t.Fatal("first fetch failed")
	}
	fetchesAfterFirst := r.ctrl.Stats().TreeNodeFetch
	// Second fetch of a neighbour line: shares the path; cached nodes cut
	// the walk short.
	res2, _ := r.ctrl.Fetch(res1.AuthDone, 0x1040, 0)
	if !res2.AuthOK {
		t.Fatal("second fetch failed")
	}
	if r.ctrl.Stats().TreeNodeFetch-fetchesAfterFirst >= fetchesAfterFirst {
		t.Fatalf("tree cache did not shorten second walk: first=%d second=%d",
			fetchesAfterFirst, r.ctrl.Stats().TreeNodeFetch-fetchesAfterFirst)
	}
	// Tamper is detected in tree mode too.
	r.m.XorRange(0x1080, []byte{1})
	res3, _ := r.ctrl.Fetch(res2.AuthDone, 0x1080, 0)
	if res3.AuthOK {
		t.Fatal("tampered line passed tree verification")
	}
}

func TestTreeWriteBackKeepsTreeConsistent(t *testing.T) {
	r := newRig(t, func(c *Config) { c.UseTree = true })
	protect(t, r, 0x1000, 1<<13)
	line := bytes.Repeat([]byte{0x42}, 64)
	done, err := r.ctrl.WriteBack(0, 0x1040, line)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := r.ctrl.Fetch(done, 0x1040, 0)
	if !res.AuthOK || !bytes.Equal(res.Data, line) {
		t.Fatal("tree inconsistent after writeback")
	}
}

func TestRemapHidesTrueAddresses(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Remap = true })
	protect(t, r, 0x1000, 4096)
	r.ctrl.Fetch(0, 0x1000, 0)
	r.ctrl.Fetch(1000, 0x1040, 0)
	for _, e := range r.b.Trace() {
		if e.Kind == bus.ReadLine && e.Addr < RemapBase {
			t.Fatalf("true address %#x leaked on bus", e.Addr)
		}
	}
	// Re-shuffle on writeback: the same line appears at a new slot.
	var before uint64
	for _, e := range r.b.Trace() {
		if e.Kind == bus.ReadLine {
			before = e.Addr
			break
		}
	}
	r.ctrl.WriteBack(2000, 0x1000, make([]byte, 64))
	r.b.ClearTrace()
	r.ctrl.Fetch(3000, 0x1000, 0)
	var after uint64
	for _, e := range r.b.Trace() {
		if e.Kind == bus.ReadLine {
			after = e.Addr
		}
	}
	if after == before {
		t.Fatal("slot did not change after reshuffle (possible but vanishingly unlikely)")
	}
	s := r.ctrl.Stats()
	if s.RemapHits+s.RemapMisses == 0 {
		t.Fatal("remap cache never consulted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	r.ctrl.Fetch(0, 0x1000, 0)
	r.ctrl.WriteBack(500, 0x1000, make([]byte, 64))
	s := r.ctrl.Stats()
	if s.Fetches != 1 || s.Writebacks != 1 || s.AuthRequests != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.AuthWaitCycles == 0 {
		t.Fatal("auth gap not accounted")
	}
}

// The crypto work counts mean what Stats documents: a flat-MAC fetch or
// write-back is one line of pad blocks and one MAC, a tree-mode fetch MACs
// each node it hashes, and a seal served from the all-zero memo counts the
// same whether the memo was cold or warm.
func TestStatsCountCryptoWork(t *testing.T) {
	blocks := uint64(DefaultConfig().LineB / 16)
	delta := func(r *rig, op func()) (aesBlocks, macs uint64) {
		t.Helper()
		before := r.ctrl.Stats()
		op()
		after := r.ctrl.Stats()
		return after.AESBlocks - before.AESBlocks, after.MACs - before.MACs
	}

	flat := newRig(t, nil)
	protect(t, flat, 0x1000, 4096)
	if a, m := delta(flat, func() { flat.ctrl.Fetch(0, 0x1000, 0) }); a != blocks || m != 1 {
		t.Errorf("flat fetch: %d AES blocks, %d MACs; want %d, 1", a, m, blocks)
	}
	if a, m := delta(flat, func() { flat.ctrl.WriteBack(500, 0x1000, make([]byte, 64)) }); a != blocks || m != 1 {
		t.Errorf("flat write-back: %d AES blocks, %d MACs; want %d, 1", a, m, blocks)
	}

	tree := newRig(t, func(c *Config) { c.UseTree = true })
	protect(t, tree, 0x1000, 1<<14)
	// A cold walk hashes the leaf, a node at every stored level above it
	// and the root; the neighbour's walk stops at their shared parent,
	// which the first walk left in the node cache.
	cold := uint64(tree.ctrl.Tree().Levels() + 1)
	if a, m := delta(tree, func() { tree.ctrl.Fetch(0, 0x1000, 0) }); a != blocks || m != cold {
		t.Errorf("cold tree fetch: %d AES blocks, %d MACs; want %d, %d", a, m, blocks, cold)
	}
	if a, m := delta(tree, func() { tree.ctrl.Fetch(1000, 0x1040, 0) }); a != blocks || m != 2 {
		t.Errorf("warm tree fetch: %d AES blocks, %d MACs; want %d, 2", a, m, blocks)
	}

	// A build counts the same crypto work whether the all-zero memo was
	// cold or warm, and whether the image memo served its whole layout;
	// a fetch after a warm build counts as after a cold one.
	for _, useTree := range []bool{false, true} {
		mutate := func(c *Config) { c.UseTree = useTree }
		zero, images := newZeroMemo(zeroSealCapB), newImageMemo(imageCapB)
		cold := mustSeal(t, zero, nil, mutate)
		builds := []struct {
			name string
			r    *rig
		}{
			{"warm all-zero memo", mustSeal(t, zero, nil, mutate)},
			{"image memo miss", mustSeal(t, zero, images, mutate)},
			{"image memo hit", mustSeal(t, zero, images, mutate)},
		}
		cs := cold.ctrl.Stats()
		if cs.AESBlocks == 0 || cs.MACs == 0 {
			t.Errorf("tree=%v: sealing the segments counted %d AES blocks, %d MACs", useTree, cs.AESBlocks, cs.MACs)
		}
		ca, cm := delta(cold, func() { cold.ctrl.Fetch(0, 0x1000, 0) })
		for _, b := range builds {
			if s := b.r.ctrl.Stats(); s.AESBlocks != cs.AESBlocks || s.MACs != cs.MACs {
				t.Errorf("tree=%v: cold build counts %d AES blocks, %d MACs; %s %d, %d",
					useTree, cs.AESBlocks, cs.MACs, b.name, s.AESBlocks, s.MACs)
			}
			if a, m := delta(b.r, func() { b.r.ctrl.Fetch(0, 0x1000, 0) }); a != ca || m != cm {
				t.Errorf("tree=%v: fetch after the %s counts %d AES blocks, %d MACs; after the cold build %d, %d",
					useTree, b.name, a, m, ca, cm)
			}
		}
	}
}

func TestCBCModeTiming(t *testing.T) {
	ctr := newRig(t, nil)
	protect(t, ctr, 0x1000, 4096)
	cbc := newRig(t, func(c *Config) { c.Mode = ModeCBC })
	protect(t, cbc, 0x1000, 4096)

	rc, err := ctr.ctrl.Fetch(0, 0x1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := cbc.ctrl.Fetch(0, 0x1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.AuthOK || string(rb.Data) != string(rc.Data) {
		t.Fatal("mode must not change functional behaviour")
	}
	// Table 1's shape: CBC has slower decryption AND slower verification,
	// but a narrower decrypt->verify gap.
	if rb.PlainReady <= rc.PlainReady {
		t.Errorf("CBC plaintext (%d) should lag CTR (%d)", rb.PlainReady, rc.PlainReady)
	}
	if rb.AuthDone <= rc.AuthDone {
		t.Errorf("CBC verification (%d) should lag CTR (%d)", rb.AuthDone, rc.AuthDone)
	}
	gapCTR := rc.AuthDone - rc.PlainReady
	gapCBC := rb.AuthDone - rb.PlainReady
	if gapCBC >= gapCTR*4 {
		t.Errorf("CBC gap %d should not dwarf CTR gap %d", gapCBC, gapCTR)
	}
}

func TestMacUnitsScaleThroughput(t *testing.T) {
	run := func(units int) uint64 {
		r := newRig(t, func(c *Config) { c.MacUnits = units })
		protect(t, r, 0x1000, 1<<16)
		var last uint64
		// A burst of 16 fetches saturates one engine (74ns each).
		for i := 0; i < 16; i++ {
			res, err := r.ctrl.Fetch(uint64(i), 0x1000+uint64(i*64), 0)
			if err != nil {
				t.Fatal(err)
			}
			last = res.AuthDone
		}
		return last
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Errorf("4 units (%d) should finish the burst before 1 unit (%d)", four, one)
	}
	if _, err := New(Config{LineB: 64, MacB: 8, MacUnits: -1}, mem.New(), bus.MustNew(bus.Default()), dram.MustNew(dram.Default()), encKey, macKey); err == nil {
		t.Error("negative MacUnits accepted")
	}
}

// Property: across random interleavings of fetches and write-backs, the
// controller maintains its core invariants — sequential request indexes,
// monotone in-order completion and arrival, plaintext consistency with a
// shadow model, and causally ordered timing fields.
func TestQuickControllerInvariants(t *testing.T) {
	r := newRig(t, nil)
	protect(t, r, 0x1000, 64*64)
	shadow := map[uint64][]byte{}
	now := uint64(0)
	lastIdx := uint64(0)
	lastDone := uint64(0)
	f := func(lineSel uint8, doWrite bool, fill byte, adv uint16) bool {
		now += uint64(adv)
		line := 0x1000 + uint64(lineSel%64)*64
		if doWrite {
			data := bytes.Repeat([]byte{fill}, 64)
			done, err := r.ctrl.WriteBack(now, line, data)
			if err != nil || done < now {
				return false
			}
			shadow[line] = data
			return true
		}
		res, err := r.ctrl.Fetch(now, line, 0)
		if err != nil || !res.AuthOK {
			return false
		}
		want := shadow[line]
		if want == nil {
			want = make([]byte, 64)
		}
		if !bytes.Equal(res.Data, want) {
			return false
		}
		if res.AuthIdx != lastIdx+1 {
			return false
		}
		lastIdx = res.AuthIdx
		if res.AuthDone < lastDone {
			return false // in-order completion violated
		}
		lastDone = res.AuthDone
		// Causal ordering of the timing fields.
		return res.AddrVisible >= now && res.DataReady > res.AddrVisible &&
			res.PlainReady >= res.DataReady-200 && res.AuthDone >= res.DataReady
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Regression: tree-path updates on write-backs must not serialize onto the
// verification engine — a write-back storm used to push the engine horizon
// unboundedly ahead of the core (watchdog timeouts under tree mode).
func TestTreeWritebackStormDoesNotStallVerification(t *testing.T) {
	r := newRig(t, func(c *Config) { c.UseTree = true })
	protect(t, r, 0x1000, 1<<16)
	line := bytes.Repeat([]byte{1}, 64)
	now := uint64(0)
	for i := 0; i < 200; i++ {
		done, err := r.ctrl.WriteBack(now, 0x1000+uint64(i*64), line)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	res, err := r.ctrl.Fetch(now, 0x1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuthDone > res.DataReady+5000 {
		t.Fatalf("verification drifted %d cycles past data arrival after a write-back storm",
			res.AuthDone-res.DataReady)
	}
	if !res.AuthOK {
		t.Fatal("verification failed")
	}
}

// What the counter binding in the MAC buys — and what it cannot buy.
//
//  1. Counter corruption alone is detected by the reference design and
//     silently accepted (as garbage plaintext!) by the weakened
//     MacCoversCounter=false design.
//  2. A FULL rollback — ciphertext + MAC + counter, all of which live in
//     untrusted memory — defeats ANY flat per-line MAC: the stale triple is
//     self-consistent. This is precisely the replay attack §5.2.3 brings
//     the hash tree in for.
//  3. The MAC tree rejects the same full rollback, even when the adversary
//     also restores the stale leaf digest: the parents chain to the
//     on-chip root.
func TestCounterBindingAndReplay(t *testing.T) {
	// 1. Counter corruption only.
	for _, weakened := range []bool{false, true} {
		r := newRig(t, func(c *Config) { c.MacCoversCounter = !weakened })
		protect(t, r, 0x1000, 4096)
		r.ctrl.LoadPlain(0x1000, bytes.Repeat([]byte{0xAA}, 64))
		r.ctrl.Encryptor().SetCounter(0x1000, 99) // corrupted counter block
		res, err := r.ctrl.Fetch(0, 0x1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if weakened {
			if !res.AuthOK {
				t.Error("weakened design should not notice counter corruption")
			}
			if res.Data[0] == 0xAA {
				t.Error("corrupted counter should decrypt to garbage")
			}
		} else if res.AuthOK {
			t.Error("reference design must detect counter corruption")
		}
	}

	// 2. Full rollback defeats the flat MAC (reference design included).
	r := newRig(t, nil)
	protect(t, r, 0x1000, 4096)
	r.ctrl.LoadPlain(0x1000, bytes.Repeat([]byte{0xAA}, 64))
	oldCT := r.m.Snapshot(0x1000, 64)
	oldMAC := r.m.Snapshot(MacBase, 8)
	oldCtr := r.ctrl.Encryptor().Counter(0x1000)
	r.ctrl.WriteBack(0, 0x1000, bytes.Repeat([]byte{0xBB}, 64))
	r.m.Write(0x1000, oldCT)
	r.m.Write(MacBase, oldMAC)
	r.ctrl.Encryptor().SetCounter(0x1000, oldCtr)
	res, _ := r.ctrl.Fetch(1000, 0x1000, 0)
	if !res.AuthOK || res.Data[0] != 0xAA {
		t.Fatal("flat MAC is expected to accept a fully consistent rollback (that is the tree's job)")
	}

	// 3. The MAC tree catches the same rollback.
	rt := newRig(t, func(c *Config) { c.UseTree = true })
	protect(t, rt, 0x1000, 4096)
	rt.ctrl.LoadPlain(0x1000, bytes.Repeat([]byte{0xAA}, 64))
	tr := rt.ctrl.Tree()
	oldCT = rt.m.Snapshot(0x1000, 64)
	oldCtr = rt.ctrl.Encryptor().Counter(0x1000)
	oldLeaf := tr.Node(mactree.NodeID{Level: 0, Index: 0})
	rt.ctrl.WriteBack(0, 0x1000, bytes.Repeat([]byte{0xBB}, 64))
	rt.m.Write(0x1000, oldCT)
	rt.ctrl.Encryptor().SetCounter(0x1000, oldCtr)
	cur := tr.Node(mactree.NodeID{Level: 0, Index: 0})
	mask := make([]byte, len(cur))
	for i := range mask {
		mask[i] = cur[i] ^ oldLeaf[i]
	}
	tr.TamperNode(mactree.NodeID{Level: 0, Index: 0}, mask) // restore stale leaf digest
	res, _ = rt.ctrl.Fetch(1000, 0x1000, 0)
	if res.AuthOK {
		t.Fatal("MAC tree accepted a full rollback")
	}
}
