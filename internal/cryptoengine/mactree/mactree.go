// Package mactree implements an m-ary MAC tree over a protected memory
// region, in the style of the CHTree/AEGIS scheme the paper evaluates in
// Section 5.3.3. Leaves are per-line MACs; each internal node is a truncated
// HMAC over the concatenation of its children; the root lives on-chip and is
// unconditionally trusted.
//
// The tree gives replay protection: a stale-but-correctly-MACed line cannot
// be substituted because its leaf digest no longer matches the path to the
// trusted root.
//
// Verification cost is what matters to the simulator: verifying a line walks
// from its leaf toward the root, and may stop early at any node the caller
// vouches for (modeling the on-chip hash-tree cache of verified nodes). The
// walk reports exactly which nodes it visited so the memory-system model can
// charge node fetches and hash latencies.
package mactree

import (
	"encoding/binary"
	"fmt"

	"authpoint/internal/cryptoengine/hmac"
)

// NodeID names a tree node. Level 0 holds the per-line leaf digests; the
// level Levels()-1 holds the children of the trusted root.
type NodeID struct {
	Level int
	Index int
}

// Tree is an m-ary MAC tree. Node storage models the untrusted external
// memory (it can be tampered with); only the root digest is trusted. A Tree
// is not safe for concurrent use, VerifyLeaf included: every MAC is built in
// one reused message buffer.
type Tree struct {
	mac       *hmac.Keyed
	arity     int
	macSize   int
	numLeaves int
	// levels[l] stores the concatenated node digests of level l.
	// levels[0] has numLeaves digests; each higher level has
	// ceil(prev/arity) digests.
	levels [][]byte
	root   []byte
	msg    []byte // scratch for the message being MACed
}

// New builds a tree for numLeaves lines whose leaf digests are all zero.
func New(key []byte, numLeaves, arity, macSize int) (*Tree, error) {
	t, err := alloc(key, numLeaves, arity, macSize)
	if err != nil {
		return nil, err
	}
	t.rebuild()
	return t, nil
}

// Build builds the tree whose leaf i holds leaf(i) for every i. The result
// equals New followed by SetLeaf(i, leaf(i)) for each leaf in index order —
// every node is the MAC of its children's final digests either way — but
// Build computes one MAC per leaf and one per internal node, not a whole
// leaf-to-root path per leaf. leaf is called once per leaf, in index order,
// and the slice it returns is read before the next call.
func Build(key []byte, numLeaves, arity, macSize int, leaf func(i int) []byte) (*Tree, error) {
	t, err := alloc(key, numLeaves, arity, macSize)
	if err != nil {
		return nil, err
	}
	for i := 0; i < numLeaves; i++ {
		sum := t.leafMac(i, leaf(i))
		copy(t.node(0, i), sum[:])
	}
	t.rebuild()
	return t, nil
}

// alloc validates the shape and allocates node storage with every digest
// zero.
func alloc(key []byte, numLeaves, arity, macSize int) (*Tree, error) {
	if numLeaves <= 0 {
		return nil, fmt.Errorf("mactree: numLeaves must be positive, got %d", numLeaves)
	}
	if arity < 2 {
		return nil, fmt.Errorf("mactree: arity must be >= 2, got %d", arity)
	}
	if macSize <= 0 || macSize > hmac.Size {
		return nil, fmt.Errorf("mactree: macSize must be in 1..%d, got %d", hmac.Size, macSize)
	}
	t := &Tree{mac: hmac.NewKeyed(key), arity: arity, macSize: macSize, numLeaves: numLeaves,
		root: make([]byte, macSize)}
	n := numLeaves
	for {
		t.levels = append(t.levels, make([]byte, n*macSize))
		if n == 1 {
			break
		}
		n = (n + arity - 1) / arity
	}
	return t, nil
}

// rebuild recomputes every internal node from the leaf digests, bottom-up,
// and then the root.
func (t *Tree) rebuild() {
	for l := 1; l < len(t.levels); l++ {
		for i := 0; i < t.nodeCount(l); i++ {
			t.recomputeNode(l, i)
		}
	}
	t.recomputeRoot()
}

// Levels returns the number of stored levels (leaf level included, trusted
// root excluded).
func (t *Tree) Levels() int { return len(t.levels) }

// NodeCount returns the number of nodes at a level.
func (t *Tree) NodeCount(level int) int { return t.nodeCount(level) }

func (t *Tree) nodeCount(level int) int { return len(t.levels[level]) / t.macSize }

// Arity returns the tree fan-out.
func (t *Tree) Arity() int { return t.arity }

// node returns the stored digest of a node.
func (t *Tree) node(level, index int) []byte {
	return t.levels[level][index*t.macSize : (index+1)*t.macSize]
}

// Node returns a copy of the stored digest of id (for inspection in tests).
func (t *Tree) Node(id NodeID) []byte {
	return append([]byte(nil), t.node(id.Level, id.Index)...)
}

// leafMac computes the digest of raw leaf data for leaf i. The leaf index
// is mixed in so identical lines at different addresses have distinct leaves.
func (t *Tree) leafMac(i int, leafData []byte) [hmac.Size]byte {
	return t.mac.Mac(t.message(uint64(i), leafData))
}

// childrenMac computes the digest of the nChildren nodes of childLevel
// starting at firstChild: the value of their parent at childLevel+1, or, over
// the top stored level, the root.
func (t *Tree) childrenMac(childLevel, firstChild, nChildren int) [hmac.Size]byte {
	children := t.levels[childLevel][firstChild*t.macSize : (firstChild+nChildren)*t.macSize]
	return t.mac.Mac(t.message(uint64(childLevel)<<32|uint64(firstChild), children))
}

// message returns hdr, little-endian, followed by body, in the tree's
// scratch buffer; it is valid until the next call.
func (t *Tree) message(hdr uint64, body []byte) []byte {
	n := 8 + len(body)
	if cap(t.msg) < n {
		t.msg = make([]byte, n)
	}
	msg := t.msg[:n]
	binary.LittleEndian.PutUint64(msg, hdr)
	copy(msg[8:], body)
	return msg
}

// children returns the first child index and the child count of the node at
// (level, index).
func (t *Tree) children(level, index int) (first, n int) {
	first = index * t.arity
	return first, min(t.arity, t.nodeCount(level-1)-first)
}

func (t *Tree) recomputeNode(level, index int) {
	first, n := t.children(level, index)
	sum := t.childrenMac(level-1, first, n)
	copy(t.node(level, index), sum[:])
}

func (t *Tree) recomputeRoot() {
	sum := t.childrenMac(len(t.levels)-1, 0, 1)
	copy(t.root, sum[:])
}

// SetLeaf installs new leaf data for line i and updates the path to the
// root. It returns the node IDs rewritten (leaf upward), which the memory
// model charges as tree-update work on write-back.
func (t *Tree) SetLeaf(i int, leafData []byte) ([]NodeID, error) {
	if i < 0 || i >= t.numLeaves {
		return nil, fmt.Errorf("mactree: leaf %d out of range [0,%d)", i, t.numLeaves)
	}
	sum := t.leafMac(i, leafData)
	copy(t.node(0, i), sum[:])
	path := []NodeID{{0, i}}
	idx := i
	for l := 1; l < len(t.levels); l++ {
		idx /= t.arity
		t.recomputeNode(l, idx)
		path = append(path, NodeID{l, idx})
	}
	t.recomputeRoot()
	return path, nil
}

// VerifyLeaf checks leaf data for line i against the tree, walking upward
// and stopping at the first node for which trusted returns true (the on-chip
// node cache), or at the on-chip root. It returns whether verification
// succeeded and the nodes whose stored digests were consulted (the memory
// model charges a fetch per consulted node group and a hash latency per
// level climbed).
//
// trusted may be nil, meaning only the root is trusted (worst case: the walk
// always reaches the root).
func (t *Tree) VerifyLeaf(i int, leafData []byte, trusted func(NodeID) bool) (bool, []NodeID) {
	if i < 0 || i >= t.numLeaves {
		return false, nil
	}
	var visited []NodeID
	computed := t.leafMac(i, leafData)
	id := NodeID{0, i}
	for {
		visited = append(visited, id)
		if !equal(computed[:t.macSize], t.node(id.Level, id.Index)) {
			return false, visited
		}
		if trusted != nil && trusted(id) {
			return true, visited
		}
		// Climb: the parent digest must match the MAC over this node's
		// sibling group.
		if id.Level == len(t.levels)-1 {
			// Parent is the trusted on-chip root.
			root := t.childrenMac(id.Level, 0, t.nodeCount(id.Level))
			return equal(root[:t.macSize], t.root), visited
		}
		parent := NodeID{id.Level + 1, id.Index / t.arity}
		first, n := t.children(parent.Level, parent.Index)
		computed = t.childrenMac(id.Level, first, n)
		id = parent
	}
}

// TamperNode XORs mask into a stored node digest, modeling an adversary
// rewriting tree nodes in external memory.
func (t *Tree) TamperNode(id NodeID, mask []byte) {
	n := t.node(id.Level, id.Index)
	for i := range n {
		n[i] ^= mask[i%len(mask)]
	}
}

// MACs returns how many MACs the tree has computed: one per leaf and
// internal node built, rewritten or checked, and one per root.
func (t *Tree) MACs() uint64 { return t.mac.MACs() }

// Root returns a copy of the trusted root digest.
func (t *Tree) Root() []byte { return append([]byte(nil), t.root...) }

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var d byte
	for i := range a {
		d |= a[i] ^ b[i]
	}
	return d == 0
}
