package mactree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var key = []byte("tree-key")

func newTree(t *testing.T, leaves, arity int) *Tree {
	t.Helper()
	tr, err := New(key, leaves, arity, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func leafData(i int) []byte {
	d := make([]byte, 64)
	rand.New(rand.NewSource(int64(i))).Read(d)
	return d
}

func fill(t *testing.T, tr *Tree, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tr.SetLeaf(i, leafData(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLevelsShape(t *testing.T) {
	cases := []struct{ leaves, arity, levels int }{
		{1, 8, 1},
		{8, 8, 2},
		{9, 8, 3},  // 9 -> 2 -> 1
		{64, 8, 3}, // 64 -> 8 -> 1
		{65, 8, 4}, // 65 -> 9 -> 2 -> 1
		{100, 4, 5},
	}
	for _, c := range cases {
		tr := newTree(t, c.leaves, c.arity)
		if tr.Levels() != c.levels {
			t.Errorf("leaves=%d arity=%d: levels=%d want %d", c.leaves, c.arity, tr.Levels(), c.levels)
		}
		if tr.NodeCount(tr.Levels()-1) != 1 {
			t.Errorf("leaves=%d: top level has %d nodes", c.leaves, tr.NodeCount(tr.Levels()-1))
		}
	}
}

func TestVerifyAfterSet(t *testing.T) {
	tr := newTree(t, 64, 8)
	fill(t, tr, 64)
	for i := 0; i < 64; i++ {
		ok, visited := tr.VerifyLeaf(i, leafData(i), nil)
		if !ok {
			t.Fatalf("leaf %d failed verification", i)
		}
		if len(visited) != tr.Levels() {
			t.Fatalf("leaf %d: visited %d nodes, want full path %d", i, len(visited), tr.Levels())
		}
	}
}

func TestDetectsWrongLeafData(t *testing.T) {
	tr := newTree(t, 16, 4)
	fill(t, tr, 16)
	bad := append([]byte(nil), leafData(3)...)
	bad[10] ^= 1
	if ok, _ := tr.VerifyLeaf(3, bad, nil); ok {
		t.Fatal("tampered leaf data accepted")
	}
}

// Substitution attack: move leaf 5's (valid) data to leaf 3. Leaf digests are
// index-bound, so this must fail.
func TestDetectsLeafSubstitution(t *testing.T) {
	tr := newTree(t, 16, 4)
	fill(t, tr, 16)
	if ok, _ := tr.VerifyLeaf(3, leafData(5), nil); ok {
		t.Fatal("leaf substitution accepted")
	}
}

// Replay attack with a consistently tampered subtree: rewrite the stored
// leaf digest to match stale data. Verification must fail at a higher level
// because the parent no longer matches.
func TestDetectsConsistentSubtreeTamper(t *testing.T) {
	tr := newTree(t, 64, 8)
	fill(t, tr, 64)
	// Adversary records leaf 7's digest, then the system updates leaf 7.
	oldData := leafData(7)
	oldDigest := tr.Node(NodeID{0, 7})
	newData := append([]byte(nil), oldData...)
	newData[0] ^= 0xff
	tr.SetLeaf(7, newData)
	// Replay: restore the stored leaf digest to the stale one.
	cur := tr.Node(NodeID{0, 7})
	mask := make([]byte, len(cur))
	for i := range mask {
		mask[i] = cur[i] ^ oldDigest[i]
	}
	tr.TamperNode(NodeID{0, 7}, mask)
	ok, visited := tr.VerifyLeaf(7, oldData, nil)
	if ok {
		t.Fatal("replayed subtree accepted")
	}
	if len(visited) < 2 {
		t.Fatalf("verification should have climbed past the forged leaf, visited=%d", len(visited))
	}
}

func TestTamperedInternalNodeDetected(t *testing.T) {
	tr := newTree(t, 64, 8)
	fill(t, tr, 64)
	tr.TamperNode(NodeID{1, 0}, []byte{0x55})
	if ok, _ := tr.VerifyLeaf(0, leafData(0), nil); ok {
		t.Fatal("tampered internal node accepted")
	}
	// Every full walk recomputes the tampered node's parent from all its
	// siblings, so even "unrelated" leaves fail: the whole tree is poisoned
	// until the tamper is repaired. That is the desired tamper-evidence.
	if ok, _ := tr.VerifyLeaf(63, leafData(63), nil); ok {
		t.Fatal("full walk should detect tamper from any leaf")
	}
	// With the untampered sibling group's parent cached as trusted, leaf 63
	// still verifies without touching the poisoned upper levels.
	trusted := func(id NodeID) bool { return id == NodeID{1, 7} }
	if ok, _ := tr.VerifyLeaf(63, leafData(63), trusted); !ok {
		t.Fatal("leaf under a trusted uncle should verify")
	}
}

// The trusted-node short circuit: with the leaf's parent trusted, the walk
// stops after two nodes.
func TestTrustedNodeStopsWalk(t *testing.T) {
	tr := newTree(t, 64, 8)
	fill(t, tr, 64)
	trusted := func(id NodeID) bool { return id.Level == 1 }
	ok, visited := tr.VerifyLeaf(9, leafData(9), trusted)
	if !ok {
		t.Fatal("verification failed")
	}
	if len(visited) != 2 {
		t.Fatalf("visited %d nodes, want 2 (leaf + trusted parent)", len(visited))
	}
}

// CRITICAL security property of caching: a trusted node must actually have
// been verified. If the walk stops at a trusted node, tampering *above* it is
// invisible — which is exactly why only verified nodes may enter the cache.
// This test documents the contract rather than a bug.
func TestTrustedNodeMasksUpperTamper(t *testing.T) {
	tr := newTree(t, 64, 8)
	fill(t, tr, 64)
	tr.TamperNode(NodeID{1, 1}, []byte{0xff})                // parent group of leaves 8..15 is fine; tamper elsewhere
	trusted := func(id NodeID) bool { return id.Level == 0 } // trust every leaf digest
	ok, _ := tr.VerifyLeaf(0, leafData(0), trusted)
	if !ok {
		t.Fatal("walk should stop at trusted leaf digest and accept")
	}
	// Without the cache the tamper is caught (level-1 node 1 poisons the root).
	ok, _ = tr.VerifyLeaf(8, leafData(8), nil)
	if ok {
		t.Fatal("full walk should detect the tampered internal node")
	}
}

func TestSetLeafReturnsPath(t *testing.T) {
	tr := newTree(t, 64, 8)
	path, err := tr.SetLeaf(42, leafData(42))
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{{0, 42}, {1, 5}, {2, 0}}
	if len(path) != len(want) {
		t.Fatalf("path %v want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v want %v", path, want)
		}
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := newTree(t, 16, 4)
	r0 := tr.Root()
	tr.SetLeaf(0, leafData(0))
	r1 := tr.Root()
	if bytes.Equal(r0, r1) {
		t.Fatal("root unchanged after leaf update")
	}
}

func TestBoundsAndErrors(t *testing.T) {
	tr := newTree(t, 8, 8)
	if _, err := tr.SetLeaf(-1, nil); err == nil {
		t.Error("negative leaf accepted")
	}
	if _, err := tr.SetLeaf(8, nil); err == nil {
		t.Error("out-of-range leaf accepted")
	}
	if ok, _ := tr.VerifyLeaf(99, nil, nil); ok {
		t.Error("out-of-range verify accepted")
	}
	if _, err := New(key, 0, 8, 8); err == nil {
		t.Error("zero leaves accepted")
	}
	if _, err := New(key, 8, 1, 8); err == nil {
		t.Error("arity 1 accepted")
	}
	if _, err := New(key, 8, 8, 0); err == nil {
		t.Error("macSize 0 accepted")
	}
	if _, err := New(key, 8, 8, 64); err == nil {
		t.Error("macSize 64 accepted")
	}
}

// Property: after arbitrary update sequences, every leaf verifies with its
// latest data and fails with any other leaf's data.
func TestQuickUpdateConsistency(t *testing.T) {
	tr := newTree(t, 32, 8)
	latest := map[int][]byte{}
	f := func(leaf uint8, data [16]byte) bool {
		i := int(leaf) % 32
		d := append([]byte(nil), data[:]...)
		if _, err := tr.SetLeaf(i, d); err != nil {
			return false
		}
		latest[i] = d
		for j, want := range latest {
			ok, _ := tr.VerifyLeaf(j, want, nil)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNonPowerArityShapes(t *testing.T) {
	// 10 leaves, arity 3: 10 -> 4 -> 2 -> 1.
	tr := newTree(t, 10, 3)
	if tr.Levels() != 4 {
		t.Fatalf("levels %d want 4", tr.Levels())
	}
	fill(t, tr, 10)
	for i := 0; i < 10; i++ {
		if ok, _ := tr.VerifyLeaf(i, leafData(i), nil); !ok {
			t.Fatalf("leaf %d failed", i)
		}
	}
}

// Build must produce the tree that New plus SetLeaf on every leaf in index
// order does, node for node and root, for full, partial and single-leaf top
// groups at every arity the tests use.
func TestBuildMatchesSetLeaf(t *testing.T) {
	for _, leaves := range []int{1, 7, 8, 9, 64, 65, 1000} {
		for _, arity := range []int{2, 4, 8} {
			want := newTree(t, leaves, arity)
			fill(t, want, leaves)
			next := 0
			got, err := Build(key, leaves, arity, 8, func(i int) []byte {
				if i != next {
					t.Fatalf("leaves=%d arity=%d: leaf(%d) called, want leaf(%d)", leaves, arity, i, next)
				}
				next++
				return leafData(i)
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != leaves {
				t.Fatalf("leaves=%d arity=%d: leaf called %d times", leaves, arity, next)
			}
			if got.Levels() != want.Levels() {
				t.Fatalf("leaves=%d arity=%d: %d levels, want %d", leaves, arity, got.Levels(), want.Levels())
			}
			for l := 0; l < want.Levels(); l++ {
				for i := 0; i < want.NodeCount(l); i++ {
					id := NodeID{l, i}
					if !bytes.Equal(got.Node(id), want.Node(id)) {
						t.Fatalf("leaves=%d arity=%d: node %v = %x, want %x", leaves, arity, id, got.Node(id), want.Node(id))
					}
				}
			}
			if !bytes.Equal(got.Root(), want.Root()) {
				t.Fatalf("leaves=%d arity=%d: root %x, want %x", leaves, arity, got.Root(), want.Root())
			}
		}
	}
	if _, err := Build(key, 0, 8, 8, leafData); err == nil {
		t.Error("Build accepted zero leaves")
	}
}
