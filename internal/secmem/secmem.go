// Package secmem implements the secure memory controller: the component
// that sits between the L2 cache and the front-side bus and performs, for
// every external line transfer, counter-mode decryption and MAC-based
// integrity verification (Figure 5 of the paper).
//
// It is the home of the paper's central mechanism, the authentication queue:
// every fetched line enqueues a verification request; an in-order
// verification engine drains the queue; the LastRequest register names the
// newest request. The five authentication control points (then-issue,
// then-commit, then-write, then-fetch, and combinations) are implemented in
// the pipeline by consuming this package's timing results — the controller
// itself only reports, for every fetch, when plaintext became available and
// when (and whether) verification completed.
//
// Everything is functional as well as timed: ciphertext and MACs really are
// stored in external memory, so the attack package can flip ciphertext bits
// and the verification engine really catches it.
package secmem

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"authpoint/internal/bus"
	"authpoint/internal/cache"
	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/hmac"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/dram"
	"authpoint/internal/mem"
	"authpoint/internal/obs"
)

// Mode selects the memory encryption mode.
type Mode int

// Encryption modes.
const (
	// ModeCTR is counter-mode encryption with pad precomputation — the
	// reference design. Decryption overlaps the fetch; the decrypt/verify
	// gap is the full MAC latency (Table 1, row 1).
	ModeCTR Mode = iota
	// ModeCBC is CBC encryption with serial decryption: the critical chunk
	// is available one cipher latency after the data arrives, the full
	// line after N serial cipher operations — and a CBC-MAC costs the same
	// N operations, so the decrypt/verify gap nearly closes while both
	// latencies balloon (Table 1, row 2). Functionally the line is still
	// counter-mode at rest; ModeCBC changes only the timing, which is what
	// the paper's comparison concerns.
	ModeCBC
)

func (m Mode) String() string {
	if m == ModeCBC {
		return "cbc"
	}
	return "ctr"
}

// Config describes the secure memory controller.
type Config struct {
	LineB int // external transfer granularity (the L2 line size)

	// Mode selects the encryption mode's timing behaviour.
	Mode Mode

	// Crypto timing (core cycles at 1 GHz == ns with the paper's clock).
	DecryptLat int // counter-mode pad generation (80ns reference)
	MacLat     int // HMAC verification per line (74ns reference)

	MacB int // truncated MAC size in bytes (8 = 64-bit reference)

	// Authenticate enables integrity verification. Off = the paper's
	// baseline ("decryption only with no authentication"): no MAC
	// bandwidth, no verification engine.
	Authenticate bool

	// UseTree replaces flat per-line MACs with the CHTree-style MAC tree
	// (Section 5.3.3). TreeCacheB is the on-chip cache of verified tree
	// nodes (8KB reference).
	UseTree    bool
	TreeCacheB int

	// Counter cache (for pad precomputation). A hit lets pad generation
	// start when the fetch address is generated; a miss first fetches the
	// counter from memory — unless CtrPredict is set.
	CtrCacheB    int
	CtrCacheWays int

	// MacUnits is the number of parallel verification engines draining the
	// authentication queue (default 1, the paper's design). Results still
	// complete in order; extra units raise throughput when misses arrive
	// faster than one unit's latency — the saturation regime several of the
	// memory-bound kernels reach.
	MacUnits int

	// MacCoversCounter includes the per-line write counter in the MAC
	// message (default true). Disabling it is a deliberately weakened
	// design used to demonstrate why the binding matters: without it, an
	// adversary can replay a stale ciphertext/MAC pair after rolling the
	// stored counter back (§5.2.3's replay discussion; the MAC tree exists
	// for the full-strength version of this attack).
	MacCoversCounter bool

	// CtrPredict models the paper's reference encryption implementation
	// ([19]: counter prediction and precomputation): on a counter-cache
	// miss the engine predicts the counter and starts pad generation
	// immediately, so decryption latency is MAX(fetch, decrypt) as in
	// Table 1. The counter block is still fetched (bandwidth and cache
	// fill); only the pad-start dependence is removed. Disable for the
	// no-prediction ablation.
	CtrPredict bool

	// Remap enables HIDE-style address obfuscation (Section 5.2.4): every
	// external line lives at a remapped location, re-shuffled on each
	// write-back, with an on-chip re-map cache. RemapCacheB sets its size.
	Remap          bool
	RemapCacheB    int
	RemapCacheWays int
}

// DefaultConfig returns the paper's reference configuration.
func DefaultConfig() Config {
	return Config{
		LineB:            64,
		DecryptLat:       80,
		MacLat:           74,
		MacB:             8,
		Authenticate:     true,
		UseTree:          false,
		TreeCacheB:       8 << 10,
		CtrCacheB:        32 << 10,
		CtrCacheWays:     4,
		CtrPredict:       true,
		MacUnits:         1,
		MacCoversCounter: true,
		Remap:            false,
		RemapCacheB:      256 << 10,
		RemapCacheWays:   4,
	}
}

// FetchResult reports the outcome and timing of one external line fetch.
type FetchResult struct {
	Data []byte // decrypted line (possibly attacker-influenced garbage)

	AddrVisible uint64 // cycle the (possibly remapped) address hit the bus
	DataReady   uint64 // cycle the ciphertext finished arriving
	PlainReady  uint64 // cycle the plaintext was available to the pipeline
	AuthDone    uint64 // cycle the verification engine finished this line
	AuthOK      bool   // verification verdict
	AuthIdx     uint64 // authentication-queue request index (1-based)
}

// Stats counts controller events.
type Stats struct {
	Fetches       uint64
	Writebacks    uint64
	CtrHits       uint64
	CtrMisses     uint64
	TreeNodeFetch uint64
	TreeCacheHits uint64
	RemapHits     uint64
	RemapMisses   uint64
	AuthRequests  uint64
	AuthFailures  uint64
	// AuthWaitCycles accumulates authDone - plainReady over all fetches:
	// the raw decrypt/verify gap of Table 1, as realized under load.
	AuthWaitCycles uint64
	// AESBlocks and MACs count the host crypto work of this controller's
	// own engines: counter-mode pad blocks, and flat-line plus MAC-tree
	// MACs. Seals served from the all-zero memo are not counted. A seal
	// served from the sealed-image memo counts the work of the seal that
	// filled the entry, so the counts do not depend on whether either memo
	// was cold or warm.
	AESBlocks uint64
	MACs      uint64
}

// Fault describes the first failed verification.
type Fault struct {
	Idx   uint64
	Addr  uint64
	Cycle uint64 // when the engine flagged it
}

// Controller is the secure memory controller.
type Controller struct {
	cfg  Config
	mem  *mem.Memory
	bus  *bus.Bus
	dram *dram.DRAM

	enc    *ctr.Engine
	macKey []byte      // the MAC tree's key
	mac    *hmac.Keyed // flat per-line MACs under macKey

	// protected holds the ranges in protection order. Leaves — the MAC
	// store's slots and the tree's leaves — number the protected lines in
	// that order: a range's lines are consecutive leaves from its first.
	protected []addrRange
	leaves    int // protected lines

	// seals serves the all-zero protected ranges' seals and images whole
	// sealed layouts (see FinishProtection); either is nil to seal every
	// line afresh. sealKey is this controller's part of their keys, and
	// keyHash, keyBuf and keySum compute the rest of an image's.
	seals   *memo[zeroSealKey, *zeroSeal]
	images  *memo[imageKey, *sealedImage]
	sealKey sealParams
	keyHash hash.Hash
	keyBuf  []byte
	keySum  [sha256.Size]byte

	// sealWork is the crypto work of the seal: done by the engines, or
	// replayed from the image memo. workBase is the engines' running
	// totals when the seal finished; Stats reports sealWork plus the work
	// since.
	sealWork, workBase cryptoWork

	// MAC store: macs[lineAddr] would be the natural model, but the MACs
	// live in external memory so they can be tampered with; we place them at
	// MacBase + leafIndex*MacB.
	macBase uint64

	tree      *mactree.Tree
	treeCache *cache.Cache

	ctrCache *cache.Cache

	// remap is the address obfuscation, nil when off; remapper keeps the
	// last one built, for reuse by Reset.
	remap    *Remapper
	remapper *Remapper

	// Authentication queue state. Requests complete strictly in order;
	// doneCycle[i] is when request i+1 (1-based idx) completed, okFlag[i]
	// its verdict, arriveCycle[i] when its data arrived (the cycle the
	// request entered the queue — LastRequest advances then, not at fetch
	// initiation: outstanding fetches never gate a new fetch, §4.2.4).
	doneCycle   []uint64
	okFlag      []bool
	arriveCycle []uint64
	engineFree  []uint64 // per verification unit

	// lastAtNow and lastAt are LastRequestAt's cursor: its last answer
	// along the forward sequence of asked cycles, which the core's
	// per-issue queries form.
	lastAtNow uint64
	lastAt    int

	fault *Fault

	// modelErr records the first internal inconsistency (malformed gate
	// dependency); see Err.
	modelErr error

	sink   obs.Sink
	obsNow uint64 // cycle of the timed operation in progress (internal clocks)

	// Per-fetch scratch buffers: the controller handles one timed operation
	// at a time, so the ciphertext, plaintext, MAC-message, and stored-MAC
	// staging areas are reused across calls to keep the per-miss path
	// allocation-free. ptBuf backs FetchResult.Data — valid until the next
	// controller operation, by which time the memory system has copied it
	// into its plaintext shadow.
	ctBuf  []byte
	ptBuf  []byte
	msgBuf []byte
	macBuf []byte

	stats Stats
}

// SetObserver attaches an event sink, wiring the controller's internal
// caches and crypto engine through it. Those components carry no cycle of
// their own, so they read obsNow, which Fetch/WriteBack stamp on entry.
func (c *Controller) SetObserver(s obs.Sink) {
	c.sink = s
	clock := func() uint64 { return c.obsNow }
	if c.ctrCache != nil {
		c.ctrCache.SetObserver(s, obs.TrackCtrCache, clock)
	}
	if c.tree != nil {
		c.treeCache.SetObserver(s, obs.TrackTreeCache, clock)
	}
	c.enc.SetObserver(s, clock)
}

// addrRange is one protected range [start, end); leaf is the leaf index of
// its first line.
type addrRange struct {
	start, end uint64
	leaf       int
}

func (r addrRange) lines(lineB uint64) int { return int((r.end - r.start) / lineB) }

// MacBase is where the MAC store begins in physical memory (outside any
// program-visible range).
const MacBase = 0x8000_0000

// RemapBase is where remapped (obfuscated) line slots live.
const RemapBase = 0x4000_0000

// New builds a controller over the given memory, bus, and DRAM models:
// Reset on a zero Controller.
func New(cfg Config, m *mem.Memory, b *bus.Bus, d *dram.DRAM, encKey, macKey []byte) (*Controller, error) {
	c := new(Controller)
	if err := c.Reset(cfg, m, b, d, encKey, macKey); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the controller to the state New leaves, under cfg, over
// the given memory, bus and DRAM: nothing protected, no counters, an empty
// authentication queue, zero stats and no observer. It keeps what the new
// configuration allows: the crypto engines' key states when the keys and
// line size are unchanged, and the caches' and buffers' storage. On an
// error the controller is unusable.
func (c *Controller) Reset(cfg Config, m *mem.Memory, b *bus.Bus, d *dram.DRAM, encKey, macKey []byte) error {
	if cfg.LineB <= 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		return fmt.Errorf("secmem: line size %d not a power of two", cfg.LineB)
	}
	if cfg.DecryptLat < 0 || cfg.MacLat < 0 {
		return fmt.Errorf("secmem: negative crypto latency")
	}
	if cfg.MacB <= 0 || cfg.MacB > 32 {
		return fmt.Errorf("secmem: bad MAC size %d", cfg.MacB)
	}
	if cfg.MacUnits == 0 {
		cfg.MacUnits = 1
	}
	if cfg.MacUnits < 0 {
		return fmt.Errorf("secmem: negative MacUnits")
	}
	if c.enc == nil || c.sealKey.encKey != string(encKey) || c.sealKey.lineB != cfg.LineB {
		enc, err := ctr.NewEngine(encKey, cfg.LineB)
		if err != nil {
			return err
		}
		c.enc, c.sealKey.encKey = enc, string(encKey)
	} else {
		c.enc.Reset()
	}
	if c.mac == nil || c.sealKey.macKey != string(macKey) {
		c.mac, c.macKey, c.sealKey.macKey = hmac.NewKeyed(macKey), append([]byte(nil), macKey...), string(macKey)
	}
	var err error
	if cfg.CtrCacheB > 0 {
		if c.ctrCache, err = resetCache(c.ctrCache, cache.Config{
			Name: "ctr", SizeB: cfg.CtrCacheB, LineB: cfg.LineB, Ways: max(1, cfg.CtrCacheWays),
		}); err != nil {
			return err
		}
	} else {
		c.ctrCache = nil
	}
	c.remap = nil
	if cfg.Remap {
		if c.remapper == nil {
			c.remapper, err = NewRemapper(cfg, m, b, d)
		} else {
			err = c.remapper.Reset(cfg, m, b, d)
		}
		if err != nil {
			return err
		}
		c.remap = c.remapper
	}
	if c.keyHash == nil {
		c.keyHash = sha256.New()
	}
	c.cfg, c.mem, c.bus, c.dram = cfg, m, b, d
	c.sealKey.lineB, c.sealKey.macB, c.sealKey.macCoversCounter = cfg.LineB, cfg.MacB, cfg.MacCoversCounter
	c.seals, c.images = zeroSeals, sealedImages
	c.protected, c.leaves, c.macBase, c.tree = c.protected[:0], 0, MacBase, nil
	c.ctBuf, c.ptBuf = resize(c.ctBuf, cfg.LineB), resize(c.ptBuf, cfg.LineB)
	c.msgBuf, c.macBuf = resize(c.msgBuf, 16+cfg.LineB), resize(c.macBuf, cfg.MacB)
	c.doneCycle, c.okFlag, c.arriveCycle = c.doneCycle[:0], c.okFlag[:0], c.arriveCycle[:0]
	c.lastAtNow, c.lastAt = 0, 0
	c.engineFree = resize(c.engineFree, cfg.MacUnits)
	clear(c.engineFree)
	c.fault, c.modelErr = nil, nil
	c.sink, c.obsNow, c.stats = nil, 0, Stats{}
	c.sealWork, c.workBase = cryptoWork{}, c.work()
	return nil
}

// resetCache empties c for cfg, or builds a cache for cfg if c is nil.
func resetCache(c *cache.Cache, cfg cache.Config) (*cache.Cache, error) {
	if c == nil {
		return cache.New(cfg)
	}
	return c, c.Reset(cfg)
}

// resize returns b with length n, reusing its storage if it can.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Memory returns the external memory (for the attack package).
func (c *Controller) Memory() *mem.Memory { return c.mem }

// Encryptor exposes the counter-mode engine (for attack-scenario plumbing
// such as counter rollback in replay experiments).
func (c *Controller) Encryptor() *ctr.Engine { return c.enc }

// Caches returns the counter cache and the tree-node cache, each nil when
// the configuration has none (stats inspection).
func (c *Controller) Caches() (ctr, tree *cache.Cache) {
	if c.tree != nil {
		tree = c.treeCache
	}
	return c.ctrCache, tree
}

// Tree exposes the MAC tree when UseTree is enabled (attack experiments
// tamper its node storage, which models untrusted external memory).
func (c *Controller) Tree() *mactree.Tree { return c.tree }

// LeafIndex returns the MAC-store / tree-leaf index of a protected line, for
// adversaries that tamper the integrity metadata rather than the data.
func (c *Controller) LeafIndex(lineAddr uint64) (int, bool) {
	return c.leafOf(lineAddr)
}

// MacAddrOf returns the external-memory address of a protected line's stored
// flat MAC. It reports false in tree mode (per-line MACs live in the tree)
// or for unprotected lines.
func (c *Controller) MacAddrOf(lineAddr uint64) (uint64, bool) {
	idx, ok := c.leafOf(lineAddr)
	if !ok || c.cfg.UseTree {
		return 0, false
	}
	return c.macAddr(idx), true
}

// Protect marks [start, start+n) as a protected (encrypted+authenticated)
// region. FinishProtection seals its lines, from plaintext zeroes unless a
// segment gives them bytes. Ranges must be line-aligned and must not
// overlap a protected range; a rejected call changes nothing.
func (c *Controller) Protect(start, n uint64) error {
	lb := uint64(c.cfg.LineB)
	if start%lb != 0 || n%lb != 0 {
		return fmt.Errorf("secmem: unaligned protected range [%#x,+%#x)", start, n)
	}
	end := start + n
	dup := end // lowest line already protected
	for _, r := range c.protected {
		if lo := max(start, r.start); lo < min(end, r.end) {
			dup = min(dup, lo)
		}
	}
	if dup < end {
		return fmt.Errorf("secmem: line %#x protected twice", dup)
	}
	c.protected = append(c.protected, addrRange{start: start, end: end, leaf: c.leaves})
	c.leaves += int(n / lb)
	return nil
}

// Segment is initial plaintext for protected memory: Data is installed at
// Addr, which need not be line-aligned.
type Segment struct {
	Addr uint64
	Data []byte
}

// FinishProtection seals the protected layout: it encrypts and MACs every
// protected line once, with its initial plaintext — zero, overlaid with the
// segments' bytes in order — and builds the MAC tree if enabled. Every
// segment byte must lie in a protected line.
//
// The sealed image is exactly the one a zero seal followed by LoadPlain of
// each segment in order leaves, counters included: a line sits at counter 1
// plus one for each non-empty segment that touches it (2 for a loaded line of
// a program image).
//
// Two process-wide memos serve seals instead, and the image is
// bit-identical either way. The sealed-image memo holds whole sealed
// layouts, keyed on everything the seal reads: the keys, the line and MAC
// sizes, MacCoversCounter, the MAC mode, the protected ranges and every
// segment byte. A hit copies the entry's ciphertext, counters, flat MACs
// and tree into the controller. On a miss, a protected range that no
// segment touches is all zeroes at counter 1, so its ciphertext and flat
// MACs depend only on the seal parameters and the range: the all-zero memo
// serves it — a machine's stack is the same range in every machine a
// campaign builds — and the rest is sealed line by line, in tree mode every
// leaf digest too, since each mixes in the leaf's index. The sealed layout
// then fills the image memo. Stats counts the same crypto work on a hit as
// on the miss that filled the entry.
//
// Call it once, after every Protect and before Fetch and SetObserver:
// sealing is unobserved, and lines served from a memo emit no EvCryptOp.
func (c *Controller) FinishProtection(segs ...Segment) error {
	lb := uint64(c.cfg.LineB)
	for _, s := range segs {
		for a := s.Addr &^ (lb - 1); a < s.Addr+uint64(len(s.Data)); a += lb {
			if _, ok := c.leafOf(a); !ok {
				return fmt.Errorf("secmem: segment outside protected region at %#x", max(a, s.Addr))
			}
		}
	}
	var key imageKey
	var img *sealedImage
	if c.images != nil {
		key = c.imageKey(segs)
		img, _ = c.images.get(key)
	}
	if img != nil {
		c.restore(img)
		c.sealWork = img.work
	} else {
		before := c.work()
		zero := c.installZeroSeals(segs)
		if err := c.seal(segs, zero); err != nil {
			return err
		}
		c.sealWork = c.work().minus(before)
		if c.images != nil {
			c.images.put(key, c.sealedImage(zero, c.sealWork), c.imageBytes(zero))
		}
	}
	if testHookSeal != nil {
		testHookSeal(img == nil)
	}
	if c.cfg.UseTree {
		// The node cache holds 64-byte sibling groups (eight digests), the
		// granularity the verification actually consumes: computing a
		// parent requires the whole group, and neighbouring leaves share
		// their upper-level groups.
		var err error
		if c.treeCache, err = resetCache(c.treeCache, cache.Config{
			Name: "treecache", SizeB: c.cfg.TreeCacheB, LineB: 64, Ways: 4,
		}); err != nil {
			return err
		}
	}
	if c.remap != nil {
		c.remap.Init(c.leaves)
	}
	c.workBase = c.work()
	return nil
}

// seal seals every protected line the all-zero memo did not serve (zero
// holds its entries, by range) and the MAC tree or the flat MACs.
func (c *Controller) seal(segs []Segment, zero []*zeroSeal) error {
	lb := uint64(c.cfg.LineB)
	if !c.cfg.UseTree {
		for k, r := range c.protected {
			if s := zero[k]; s != nil {
				c.mem.Write(c.macAddr(r.leaf), s.macs)
				continue
			}
			for a, leaf := r.start, r.leaf; a < r.end; a, leaf = a+lb, leaf+1 {
				mac := c.mac.Mac(c.sealLine(a, segs))
				c.mem.Write(c.macAddr(leaf), mac[:c.cfg.MacB])
			}
		}
		return nil
	}
	var err error
	arity := c.cfg.LineB / c.cfg.MacB
	if c.leaves == 0 {
		c.tree, err = mactree.New(c.macKey, 1, arity, c.cfg.MacB)
		return err
	}
	// Build asks for the leaves in index order, and each range is one run
	// of leaves: leaf i lies in range k while i < end.
	k, end := -1, 0
	c.tree, err = mactree.Build(c.macKey, c.leaves, arity, c.cfg.MacB, func(i int) []byte {
		for i >= end {
			k++
			end += c.protected[k].lines(lb)
		}
		r := c.protected[k]
		off := uint64(i-r.leaf) * lb
		if s := zero[k]; s != nil {
			return c.authMessage(r.start+off, s.ct[off:off+lb])
		}
		return c.sealLine(r.start+off, segs)
	})
	return err
}

// sealLine encrypts the protected line at lineAddr with its initial
// plaintext, stores the ciphertext and returns the line's MAC message (the
// authMessage scratch). Before the encryption's own counter step, the
// counter advances once per segment touching the line, as each LoadPlain
// would have re-encrypted it.
func (c *Controller) sealLine(lineAddr uint64, segs []Segment) []byte {
	pt := c.ptBuf
	clear(pt)
	end := lineAddr + uint64(c.cfg.LineB)
	var loads uint64
	for _, s := range segs {
		sEnd := s.Addr + uint64(len(s.Data))
		if len(s.Data) == 0 || s.Addr >= end || sEnd <= lineAddr {
			continue
		}
		lo := max(s.Addr, lineAddr)
		copy(pt[lo-lineAddr:], s.Data[lo-s.Addr:min(sEnd, end)-s.Addr])
		loads++
	}
	if loads > 0 {
		c.enc.SetCounter(lineAddr, c.enc.Counter(lineAddr)+loads)
	}
	ct := c.ctBuf
	// Cannot fail: pt is the controller's line-sized buffer and the engine
	// was built for that line size.
	_ = c.enc.EncryptLineInto(ct, lineAddr, pt)
	c.mem.Write(lineAddr, ct)
	return c.authMessage(lineAddr, ct)
}

// IsProtected reports whether addr lies in a protected range.
func (c *Controller) IsProtected(addr uint64) bool {
	_, ok := c.rangeOf(addr)
	return ok
}

// rangeOf returns the protected range holding addr. A controller has a
// handful of ranges (text, data, stack, a probe window), so a scan over
// them stands in for a per-line index.
func (c *Controller) rangeOf(addr uint64) (addrRange, bool) {
	for _, r := range c.protected {
		if addr >= r.start && addr < r.end {
			return r, true
		}
	}
	return addrRange{}, false
}

// leafOf returns the leaf index of the protected line at lineAddr: its
// range's first leaf plus the line's offset in the range. An unaligned or
// unprotected address has none.
func (c *Controller) leafOf(lineAddr uint64) (int, bool) {
	lb := uint64(c.cfg.LineB)
	r, ok := c.rangeOf(lineAddr)
	if !ok || lineAddr%lb != 0 {
		return 0, false
	}
	return r.leaf + int((lineAddr-r.start)/lb), true
}

// LoadPlain installs plaintext into a sealed protected region (re-encrypting
// and re-MACing each touched line, which advances its counter). Not a timed
// operation. Program images are loaded by passing them to FinishProtection
// instead, which seals each line once.
func (c *Controller) LoadPlain(addr uint64, data []byte) error {
	lb := uint64(c.cfg.LineB)
	for len(data) > 0 {
		la := addr &^ (lb - 1)
		leaf, ok := c.leafOf(la)
		if !ok {
			return fmt.Errorf("secmem: LoadPlain outside protected region at %#x", addr)
		}
		line, err := c.loadLinePlain(la)
		if err != nil {
			return err
		}
		off := int(addr - la)
		n := copy(line[off:], data)
		if err := c.storeLine(la, leaf, line); err != nil {
			return err
		}
		addr += uint64(n)
		data = data[n:]
	}
	return nil
}

// ReadPlain reads plaintext back from a protected region (untimed; for
// loaders, debuggers, and result checking). Every line read must be
// protected: the error names the first that is not.
func (c *Controller) ReadPlain(addr uint64, n int) ([]byte, error) {
	lb := uint64(c.cfg.LineB)
	out := make([]byte, 0, n)
	for n > 0 {
		la := addr &^ (lb - 1)
		if _, ok := c.leafOf(la); !ok {
			return nil, fmt.Errorf("secmem: ReadPlain of unprotected line %#x", la)
		}
		line, err := c.loadLinePlain(la)
		if err != nil {
			return nil, err
		}
		off := int(addr - la)
		take := c.cfg.LineB - off
		if take > n {
			take = n
		}
		out = append(out, line[off:off+take]...)
		addr += uint64(take)
		n -= take
	}
	return out, nil
}

// loadLinePlain decrypts the stored ciphertext of a protected line
// (functional only, no timing, no verification).
func (c *Controller) loadLinePlain(lineAddr uint64) ([]byte, error) {
	ct := c.mem.Read(lineAddr, c.cfg.LineB)
	return c.enc.DecryptLine(lineAddr, ct)
}

// storeLine encrypts and stores the protected line at lineAddr, whose leaf
// index is leaf, refreshing MAC/tree (functional only).
func (c *Controller) storeLine(lineAddr uint64, leaf int, plaintext []byte) error {
	ct := c.ctBuf
	if err := c.enc.EncryptLineInto(ct, lineAddr, plaintext); err != nil {
		return err
	}
	c.mem.Write(lineAddr, ct)
	if c.tree != nil {
		_, err := c.tree.SetLeaf(leaf, c.authMessage(lineAddr, ct))
		return err
	}
	mac := c.mac.Mac(c.authMessage(lineAddr, ct))
	c.mem.Write(c.macAddr(leaf), mac[:c.cfg.MacB])
	return nil
}

// authMessage is the byte string the MAC covers: line address, current
// counter (unless the weakened MacCoversCounter=false configuration is
// selected), and ciphertext. Covering the counter defeats counter-rollback
// replay; covering the address defeats line relocation. The returned slice
// is the controller's reusable scratch: valid until the next authMessage
// call, never retained (tree leaves hash it immediately).
func (c *Controller) authMessage(lineAddr uint64, ct []byte) []byte {
	var counter uint64
	if c.cfg.MacCoversCounter {
		counter = c.enc.Counter(lineAddr)
	}
	return putAuthMessage(c.msgBuf, lineAddr, counter, ct)
}

// putAuthMessage lays out a line's MAC message in msg, which must hold
// 16+len(ct) bytes: the line address and counter, little-endian, then the
// ciphertext. counter is 0 when the MAC does not cover the counter.
func putAuthMessage(msg []byte, lineAddr, counter uint64, ct []byte) []byte {
	msg = msg[:16+len(ct)]
	binary.LittleEndian.PutUint64(msg, lineAddr)
	binary.LittleEndian.PutUint64(msg[8:], counter)
	copy(msg[16:], ct)
	return msg
}

func (c *Controller) macAddr(leafIdx int) uint64 {
	return c.macBase + uint64(leafIdx)*uint64(c.cfg.MacB)
}

// verifyLine checks the stored MAC (or tree path) for a line's current
// ciphertext. Returns the verdict plus the extra engine work performed
// beyond the flat per-line MAC (tree levels climbed, uncached node fetches).
func (c *Controller) verifyLine(lineAddr uint64, leaf int, ct []byte) (ok bool, treeLevels, nodeFetches int) {
	msg := c.authMessage(lineAddr, ct)
	if c.tree == nil {
		stored := c.macBuf
		c.mem.ReadInto(stored, c.macAddr(leaf))
		return c.mac.Verify(msg, stored), 0, 0
	}
	trusted := func(id mactree.NodeID) bool {
		if id.Level == 0 {
			return false // leaf digests are never implicitly trusted
		}
		_, hit := c.treeCache.Access(c.treeNodeAddr(id), false)
		return hit
	}
	okv, visited := c.tree.VerifyLeaf(leaf, msg, trusted)
	// Cache the verified path nodes (only on success: unverified nodes must
	// never become trusted).
	fetches := 0
	for _, id := range visited {
		if id.Level == 0 {
			continue
		}
		fetches++
		if okv {
			c.treeCache.Fill(c.treeNodeAddr(id), false)
		}
	}
	return okv, len(visited), fetches
}

// treeNodeAddr assigns each tree node a synthetic external-memory address
// for the node cache and node-fetch bus transactions.
func (c *Controller) treeNodeAddr(id mactree.NodeID) uint64 {
	// Levels are laid out consecutively above the MAC store.
	base := c.macBase + 0x1000_0000
	var off uint64
	for l := 0; l < id.Level; l++ {
		off += uint64(c.tree.NodeCount(l))
	}
	return base + (off+uint64(id.Index))*uint64(c.cfg.MacB)
}

// Fetch performs a timed external fetch of the protected line at lineAddr.
// now is the cycle the L2 miss reached the controller; earliestBusStart is a
// policy-imposed lower bound on when the fetch address may be driven onto
// the bus (authen-then-fetch passes the completion cycle of the relevant
// authentication request; everyone else passes 0).
func (c *Controller) Fetch(now uint64, lineAddr uint64, earliestBusStart uint64) (FetchResult, error) {
	leaf, ok := c.leafOf(lineAddr)
	if !ok {
		return FetchResult{}, fmt.Errorf("secmem: fetch of unprotected line %#x", lineAddr)
	}
	c.stats.Fetches++
	c.obsNow = now
	start := max(now, earliestBusStart)
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: start, Kind: obs.EvSecFetch, Track: obs.TrackSecmem, Addr: lineAddr})
		if start > now {
			// The fetch waited on an authen-then-fetch gate (or remap).
			c.sink.Emit(obs.Event{Cycle: now, Kind: obs.EvFetchGateWait, Track: obs.TrackSecmem,
				Addr: lineAddr, A: start - now})
		}
	}

	// The line fetch goes onto the bus first — it is the critical transfer
	// (and the address phase is the disclosure); the counter-block fetch,
	// if needed, queues behind it.
	burst := c.cfg.LineB
	if c.cfg.Authenticate && !c.cfg.UseTree {
		burst += c.cfg.MacB // flat MAC travels with the line
	}
	busAddr := lineAddr
	busStart := start
	if c.remap != nil {
		var remapReady uint64
		busAddr, remapReady = c.remap.Lookup(start, lineAddr, leaf)
		busStart = max(busStart, remapReady)
	}
	addrDone, dataArrive := c.busDramRead(busStart, busAddr, burst, bus.ReadLine)

	// Counter availability gates pad precomputation. Counters are cached in
	// 64-byte blocks of eight 8-byte entries, so one counter fetch covers
	// eight neighbouring lines (the standard counter-cache organization of
	// the counter-mode designs the paper builds on).
	padStart := start
	if c.ctrCache != nil {
		key := c.ctrKey(lineAddr)
		if _, hit := c.ctrCache.Access(key, false); !hit {
			// Fetch the counter block; without prediction, pads wait for
			// it. With [19]-style prediction the pad starts immediately
			// from the predicted counter and the fetched block only
			// confirms it.
			_, ctrArrive := c.busDramRead(start, c.counterAddr(leaf), 64, bus.ReadMeta)
			if !c.cfg.CtrPredict {
				padStart = ctrArrive
			}
			c.ctrCache.Fill(key, false)
		}
	}

	var plainReady uint64
	if c.cfg.Mode == ModeCBC {
		// Serial CBC decryption: the critical chunk needs one cipher
		// latency after arrival (chunk n would need n+1; the pipeline
		// consumes the critical word first).
		plainReady = dataArrive + uint64(c.cfg.DecryptLat)
	} else {
		padReady := padStart + uint64(c.cfg.DecryptLat)
		plainReady = max(dataArrive, padReady)
	}

	ct := c.ctBuf
	c.mem.ReadInto(ct, lineAddr)
	if err := c.enc.DecryptLineInto(c.ptBuf, lineAddr, ct); err != nil {
		return FetchResult{}, err
	}

	res := FetchResult{
		Data:        c.ptBuf,
		AddrVisible: addrDone,
		DataReady:   dataArrive,
		PlainReady:  plainReady,
		AuthOK:      true,
	}
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: plainReady, Kind: obs.EvDecryptReady, Track: obs.TrackSecmem, Addr: lineAddr})
	}

	if !c.cfg.Authenticate {
		res.AuthDone = plainReady
		return res, nil
	}

	// Enqueue on the authentication queue: the in-order engine starts this
	// request when the data has arrived and every earlier request is done.
	ok, treeLevels, nodeFetches := c.verifyLine(lineAddr, leaf, ct)
	var authDone uint64
	switch {
	case c.cfg.Mode == ModeCBC && c.tree == nil:
		// CBC-MAC: N serial cipher operations over the line.
		authDone = c.engineRun(dataArrive, uint64(c.cfg.DecryptLat)*uint64(c.cfg.LineB/16))
	case c.tree == nil:
		authDone = c.engineRun(dataArrive, uint64(c.cfg.MacLat))
	default:
		// CHTree-style concurrent verification (the paper's implementation
		// "performs the verification of the internal hash tree nodes
		// concurrently when it is allowed"): the uncached nodes of the walk
		// are fetched in one metadata burst that overlaps the engine's
		// previous hashing, and the per-level checks are independent given
		// the fetched nodes, so they pipeline through the hash unit — full
		// latency for the first level, one initiation interval for each
		// further level.
		c.stats.TreeNodeFetch += uint64(nodeFetches)
		nodesReady := dataArrive
		if nodeFetches > 0 {
			_, arr := c.busDramRead(dataArrive, c.macBase+0x1000_0000, nodeFetches*c.cfg.LineB, bus.ReadMeta)
			nodesReady = max(nodesReady, arr)
		}
		if treeLevels < 1 {
			treeLevels = 1
		}
		hashTime := uint64(c.cfg.MacLat) + uint64((treeLevels-1)*c.cfg.MacLat/4)
		authDone = c.engineRun(nodesReady, hashTime)
	}
	// The queue completes strictly in order.
	if n := len(c.doneCycle); n > 0 && c.doneCycle[n-1] > authDone {
		authDone = c.doneCycle[n-1]
	}

	c.stats.AuthRequests++
	arrive := dataArrive
	if n := len(c.arriveCycle); n > 0 && c.arriveCycle[n-1] > arrive {
		arrive = c.arriveCycle[n-1] // keep the arrival sequence monotone
	}
	c.arriveCycle = append(c.arriveCycle, arrive)
	c.doneCycle = append(c.doneCycle, authDone)
	c.okFlag = append(c.okFlag, ok)
	res.AuthIdx = uint64(len(c.doneCycle))
	res.AuthDone = authDone
	res.AuthOK = ok
	c.stats.AuthWaitCycles += authDone - plainReady
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: arrive, Kind: obs.EvAuthRequest, Track: obs.TrackAuthQueue,
			Addr: lineAddr, A: res.AuthIdx, B: authDone})
		c.sink.Emit(obs.Event{Cycle: authDone, Kind: obs.EvAuthComplete, Track: obs.TrackAuthQueue,
			Addr: lineAddr, A: arrive, B: plainReady})
		if !ok {
			c.sink.Emit(obs.Event{Cycle: authDone, Kind: obs.EvAuthFail, Track: obs.TrackAuthQueue,
				Addr: lineAddr, A: res.AuthIdx})
		}
	}
	if !ok {
		c.stats.AuthFailures++
		if c.fault == nil {
			c.fault = &Fault{Idx: res.AuthIdx, Addr: lineAddr, Cycle: authDone}
		}
	}
	return res, nil
}

// ctrKey maps a line address to its counter-block cache key: eight
// consecutive lines share one 64-byte counter block.
func (c *Controller) ctrKey(lineAddr uint64) uint64 {
	return lineAddr / uint64(c.cfg.LineB) * 8
}

// counterAddr is where the counter of the line with leaf index leaf lives
// in external memory.
func (c *Controller) counterAddr(leaf int) uint64 {
	return c.macBase + 0x2000_0000 + uint64(leaf)*8
}

// busDramRead performs one address+data transaction: bus command, DRAM
// access, data return. Returns (address-visible cycle, data-arrival cycle).
func (c *Controller) busDramRead(start uint64, addr uint64, nbytes int, kind bus.Kind) (uint64, uint64) {
	addrDone, _ := c.bus.Transact(start, kind, addr, nbytes)
	_, done := c.dram.Access(addrDone, addr, nbytes)
	return addrDone, done
}

// WriteBack performs a timed external write-back of a dirty protected line.
// It returns the cycle the write completes on the bus. Under
// authen-then-write the *pipeline* delays calling this until the store's
// authentication tag clears; the controller itself writes unconditionally.
func (c *Controller) WriteBack(now uint64, lineAddr uint64, plaintext []byte) (uint64, error) {
	leaf, ok := c.leafOf(lineAddr)
	if !ok {
		return 0, fmt.Errorf("secmem: writeback of unprotected line %#x", lineAddr)
	}
	c.stats.Writebacks++
	c.obsNow = now
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: now, Kind: obs.EvWriteBack, Track: obs.TrackSecmem, Addr: lineAddr})
	}
	if err := c.storeLine(lineAddr, leaf, plaintext); err != nil {
		return 0, err
	}
	if c.ctrCache != nil {
		c.ctrCache.Fill(c.ctrKey(lineAddr), true)
	}
	burst := c.cfg.LineB + 8 // line + fresh counter
	if c.cfg.Authenticate && !c.cfg.UseTree {
		burst += c.cfg.MacB
	}
	busAddr := lineAddr
	busStart := now
	if c.remap != nil {
		var ready uint64
		busAddr, ready = c.remap.Reshuffle(now, lineAddr, leaf)
		busStart = max(busStart, ready)
	}
	_, done := c.bus.Transact(busStart, bus.WriteLine, busAddr, burst)
	// The tree path update costs the verification engine no time: it runs
	// off the critical path in a real design, and charging it there would
	// let a write-back storm push every pending verification far ahead.
	return done, nil
}

// engineRun schedules one verification of the given duration, whose inputs
// are ready at `ready`, onto the earliest-free verification unit. It returns
// the completion cycle.
func (c *Controller) engineRun(ready uint64, dur uint64) uint64 {
	best := 0
	for i := 1; i < len(c.engineFree); i++ {
		if c.engineFree[i] < c.engineFree[best] {
			best = i
		}
	}
	start := max(ready, c.engineFree[best])
	c.engineFree[best] = start + dur
	return start + dur
}

// LastRequest returns the index of the newest authentication request (the
// LastRequest register of Figure 5). Zero means no requests yet.
func (c *Controller) LastRequest() uint64 { return uint64(len(c.doneCycle)) }

// LastRequestAt returns the value the LastRequest register held at the
// given cycle: the newest request whose data had arrived (entered the
// authentication queue) by then. Fetches still outstanding at that cycle
// are not counted — they must not gate a new fetch (§4.2.4).
//
// The arrival sequence is monotone and only grows, so a query at or after
// the last forward query's cycle walks on from that answer; a query at an
// earlier cycle binary-searches and leaves the cursor where it is.
func (c *Controller) LastRequestAt(now uint64) uint64 {
	if now >= c.lastAtNow {
		i := c.lastAt
		for i < len(c.arriveCycle) && c.arriveCycle[i] <= now {
			i++
		}
		c.lastAtNow, c.lastAt = now, i
		return uint64(i)
	}
	lo, hi := 0, len(c.arriveCycle)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.arriveCycle[mid] <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// DoneAt returns the completion cycle and verdict of request idx (1-based).
// idx 0 (no dependency) reports done at cycle 0.
//
// An out-of-range idx is a model inconsistency (a gate dependency on a
// request that was never enqueued). It does not panic: the first occurrence
// is recorded as a sticky error — surfaced by sim.Machine.Run as a failed
// run — and the call reports done-at-0 so the caller's gating logic does not
// deadlock while the error propagates.
func (c *Controller) DoneAt(idx uint64) (cycle uint64, ok bool) {
	if idx == 0 {
		return 0, true
	}
	if idx > uint64(len(c.doneCycle)) {
		if c.modelErr == nil {
			c.modelErr = fmt.Errorf("secmem: DoneAt(%d) beyond LastRequest %d", idx, len(c.doneCycle))
		}
		return 0, false
	}
	return c.doneCycle[idx-1], c.okFlag[idx-1]
}

// Err returns the first internal model inconsistency this controller
// observed (nil if none). Sticky: later inconsistencies do not overwrite it.
func (c *Controller) Err() error { return c.modelErr }

// Fault returns the first verification failure, if any.
func (c *Controller) Fault() *Fault { return c.fault }

// NextEventAt supports the idle-cycle fast-forward. The controller and its
// crypto engines are lazily timed — every request's verification completion
// is scheduled at request time and read back through DoneAt, so those
// horizons are already folded into the consumers' gate timestamps. The one
// autonomous event is a pending security fault firing when the engine
// reaches the tampered line; the run loop must not skip past it.
func (c *Controller) NextEventAt(now uint64) uint64 {
	if c.fault != nil && c.fault.Cycle > now {
		return c.fault.Cycle
	}
	if c.fault != nil {
		return now // fault already due: stop skipping, let the loop observe it
	}
	return ^uint64(0)
}

// Stats returns a copy of the counters, with the counter-cache,
// tree-node-cache and re-map lookups read from those caches and the
// crypto work folded in.
func (c *Controller) Stats() Stats {
	s := c.stats
	if c.ctrCache != nil {
		cs := c.ctrCache.Stats()
		s.CtrHits, s.CtrMisses = cs.Hits, cs.Misses
	}
	if c.tree != nil {
		s.TreeCacheHits = c.treeCache.Stats().Hits
	}
	if c.remap != nil {
		s.RemapHits = c.remap.hits
		s.RemapMisses = c.remap.misses
	}
	w := c.work().minus(c.workBase)
	s.AESBlocks = c.sealWork.aes + w.aes
	s.MACs = c.sealWork.macs + w.macs
	return s
}
