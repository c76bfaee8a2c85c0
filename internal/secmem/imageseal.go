package secmem

import (
	"crypto/sha256"
	"encoding/binary"

	"authpoint/internal/cryptoengine/mactree"
)

// imageCapB bounds the bytes the sealed-image memo holds: 256 KB. A
// campaign program's entry holds a few KB, or some 15 KB with the MAC tree,
// so the memo holds a campaign's recent seeds even at 16 workers. The
// sweep kernels' 200 KB-4 MB images are sealed afresh: every byte the memo
// holds is live heap, and a 2.5 MB cap, which held one such image at a
// time, raised a memory-bound sweep's peak RSS by about 5%.
const imageCapB = 256 << 10

// imageKey is everything a seal reads: the seal parameters, the MAC mode
// (the tree's arity is lineB/macB), and a SHA-256 digest of the protected
// ranges, in protection order, and of every segment's address and bytes.
type imageKey struct {
	sealParams
	tree   bool
	digest [sha256.Size]byte
}

// sealedImage is the state FinishProtection leaves behind for one
// imageKey: each protected range's ciphertext, counters and flat MACs, and
// the MAC tree. The ranges of all-zero ranges are the all-zero memo's
// entries, shared, since neither memo modifies what it holds.
type sealedImage struct {
	ranges []sealedRange // in protection order
	// tree is the sealed MAC tree in tree mode. Controllers take clones; it
	// never computes a MAC itself.
	tree *mactree.Tree
	work cryptoWork // the crypto work of the seal, replayed on a hit
}

// sealedRange is one protected range's sealed lines, in address order.
type sealedRange struct {
	ct   []byte
	ctrs []uint64
	macs []byte // flat MACs; unused in tree mode
}

// sealedImages is the process-wide memo every controller starts with.
// Campaigns run one program under many policies in a row, and the policies
// share the seal: only the MAC mode, among the policy knobs, is in the key.
var sealedImages = newMemo[imageKey, *sealedImage](imageCapB)

// cryptoWork counts the host crypto work of a controller's engines: AES
// blocks and MACs.
type cryptoWork struct{ aes, macs uint64 }

func (w cryptoWork) minus(v cryptoWork) cryptoWork { return cryptoWork{w.aes - v.aes, w.macs - v.macs} }

// work returns the running totals of the controller's engines.
func (c *Controller) work() cryptoWork {
	w := cryptoWork{c.enc.AESBlocks(), c.mac.MACs()}
	if c.tree != nil {
		w.macs += c.tree.MACs()
	}
	return w
}

// imageKey returns the memo key of sealing the protected layout with segs.
func (c *Controller) imageKey(segs []Segment) imageKey {
	h := c.keyHash
	h.Reset()
	b := c.keyBuf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.protected)))
	for _, r := range c.protected {
		b = binary.LittleEndian.AppendUint64(b, r.start)
		b = binary.LittleEndian.AppendUint64(b, r.end)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(segs)))
	h.Write(b)
	for _, s := range segs {
		b = binary.LittleEndian.AppendUint64(b[:0], s.Addr)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Data)))
		h.Write(b)
		h.Write(s.Data)
	}
	c.keyBuf = b
	k := imageKey{sealParams: c.sealKey, tree: c.cfg.UseTree}
	copy(k.digest[:], h.Sum(c.keySum[:0]))
	return k
}

// imageBytes is the size of the entry sealing the layout would make: the
// ranges the all-zero memo did not serve, and the tree.
func (c *Controller) imageBytes(zero []*zeroSeal) int {
	n := 0
	perLine := c.cfg.LineB + 8
	if !c.cfg.UseTree {
		perLine += c.cfg.MacB
	}
	for k, r := range c.protected {
		if zero[k] == nil {
			n += r.lines(uint64(c.cfg.LineB)) * perLine
		}
	}
	if c.tree != nil {
		n += c.tree.Bytes()
	}
	return n
}

// sealedImage copies the sealed layout out of the controller, sharing the
// all-zero memo's entries for the ranges it served.
func (c *Controller) sealedImage(zero []*zeroSeal, work cryptoWork) *sealedImage {
	lb := uint64(c.cfg.LineB)
	img := &sealedImage{ranges: make([]sealedRange, len(c.protected)), work: work}
	for k, r := range c.protected {
		if s := zero[k]; s != nil {
			img.ranges[k] = sealedRange{ct: s.ct, ctrs: s.ctrs, macs: s.macs}
			continue
		}
		n := r.lines(lb)
		sr := sealedRange{ct: c.mem.Read(r.start, int(r.end-r.start)), ctrs: make([]uint64, n)}
		for i := range sr.ctrs {
			sr.ctrs[i] = c.enc.Counter(r.start + uint64(i)*lb)
		}
		if c.tree == nil {
			sr.macs = c.mem.Read(c.macAddr(r.leaf), n*c.cfg.MacB)
		}
		img.ranges[k] = sr
	}
	if c.tree != nil {
		img.tree = c.tree.Clone()
	}
	return img
}

// restore installs a sealed image into the controller: it copies every
// range's ciphertext into memory and its counters into the engine, the flat
// MACs into the MAC store, and clones the tree.
func (c *Controller) restore(img *sealedImage) {
	for k, r := range c.protected {
		sr := img.ranges[k]
		c.mem.Write(r.start, sr.ct)
		c.enc.SetCounters(r.start, sr.ctrs)
		if img.tree == nil {
			c.mem.Write(c.macAddr(r.leaf), sr.macs)
		}
	}
	if img.tree != nil {
		c.tree = img.tree.Clone()
	}
}
