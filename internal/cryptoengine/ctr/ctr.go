// Package ctr implements counter-mode memory encryption for the secure
// processor, following the style of the counter-mode secure processor designs
// the paper cites ([19, 23, 27]): each protected cache line is encrypted by
// XOR with a one-time pad derived from AES over (line address, per-line
// counter, chunk index).
//
// The essential property for the paper is that counter mode is *malleable*:
// flipping bit i of the ciphertext flips exactly bit i of the decrypted
// plaintext. The attack package exploits this for pointer conversion, binary
// search, and disclosing-kernel injection; the authentication architecture
// exists to catch it.
//
// The second essential property is timing: the pad depends only on
// (address, counter), so when the counter is available on-chip (counter-cache
// hit) pad generation proceeds *in parallel* with the memory fetch, making
// effective decryption latency max(fetch, decrypt) — Table 1 of the paper.
package ctr

import (
	"fmt"

	"authpoint/internal/cryptoengine/aes"
	"authpoint/internal/obs"
)

// blockLines is how many consecutive lines' counters share one block of the
// counter table: sealing a machine's protected lines touches a few dozen
// blocks rather than one map entry per line.
const blockLines = 64

// counterBlock holds the write counters of blockLines consecutive lines.
type counterBlock [blockLines]uint64

// Engine encrypts and decrypts fixed-size memory lines in counter mode.
// It also maintains the per-line counter table (the authoritative copy that a
// real system would keep encrypted in memory with an on-chip counter cache).
type Engine struct {
	cipher   *aes.Cipher
	lineSize int
	blocks   map[uint64]*counterBlock // line number / blockLines -> counters
	// One-entry block cache, as mem.Memory caches its last page: sealing
	// and fetches walk lines in address order.
	lastBlk uint64
	last    *counterBlock
	// free holds the counter blocks of the run before the last Reset, for
	// reuse.
	free []*counterBlock
	// seed is padInto's cipher input. Held here, not on padInto's stack,
	// because a block passed to the cipher escapes: a local one would cost an
	// allocation per pad.
	seed [aes.BlockSize]byte

	sink  obs.Sink
	clock func() uint64
}

// SetObserver attaches an event sink. The engine is functional (untimed), so
// the owner supplies a clock closure reading the cycle its current timed
// operation is charged to.
func (e *Engine) SetObserver(s obs.Sink, clock func() uint64) {
	e.sink = s
	e.clock = clock
}

func (e *Engine) emit(addr uint64, decrypt uint64) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(obs.Event{Cycle: e.clock(), Kind: obs.EvCryptOp, Track: obs.TrackCrypto,
		Addr: addr, A: decrypt, B: uint64(e.PadChunks())})
}

// NewEngine creates a counter-mode engine. lineSize must be a positive
// multiple of the AES block size.
func NewEngine(key []byte, lineSize int) (*Engine, error) {
	if lineSize <= 0 || lineSize%aes.BlockSize != 0 {
		return nil, fmt.Errorf("ctr: line size %d is not a positive multiple of %d", lineSize, aes.BlockSize)
	}
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	e := &Engine{cipher: c, lineSize: lineSize, blocks: map[uint64]*counterBlock{}}
	e.Reset()
	return e, nil
}

// Reset sets every line's counter back to 0, as in a new engine, and
// detaches the observer. The key schedule and AESBlocks's count stay. The
// engine keeps its counter blocks for later counters, clearing each as it
// reuses it, as mem.Memory keeps its pages.
func (e *Engine) Reset() {
	clear(e.free[:cap(e.free)])
	e.free = e.free[:0]
	for _, b := range e.blocks {
		e.free = append(e.free, b)
	}
	clear(e.blocks)
	e.lastBlk, e.last = ^uint64(0), nil
	e.sink, e.clock = nil, nil
}

// counter returns the slot holding the write counter of addr's line, or nil
// if its block was never written and create is false.
func (e *Engine) counter(addr uint64, create bool) *uint64 {
	line := addr / uint64(e.lineSize)
	b := e.block(line/blockLines, create)
	if b == nil {
		return nil
	}
	return &b[line%blockLines]
}

// block returns counter block blk, or nil if it was never written and
// create is false.
func (e *Engine) block(blk uint64, create bool) *counterBlock {
	if blk == e.lastBlk {
		return e.last
	}
	b, ok := e.blocks[blk]
	if !ok {
		if !create {
			return nil
		}
		if n := len(e.free); n > 0 {
			b = e.free[n-1]
			e.free = e.free[:n-1]
			*b = counterBlock{}
		} else {
			b = new(counterBlock)
		}
		e.blocks[blk] = b
	}
	e.lastBlk, e.last = blk, b
	return b
}

// PadChunks returns the number of AES invocations needed to produce the pad
// for one line. A pipelined hardware unit produces them in parallel, so the
// timing model charges one decryption latency regardless; the count is used
// by throughput-limited configurations.
func (e *Engine) PadChunks() int { return e.lineSize / aes.BlockSize }

// AESBlocks returns how many AES blocks the engine has encrypted: PadChunks
// per line encrypted or decrypted.
func (e *Engine) AESBlocks() uint64 { return e.cipher.Blocks() }

// Counter returns the current write counter of the line holding addr. A
// counter belongs to its line, not to a byte address: every address in one
// line reads the same counter, and callers pass the line address. A line
// never written reads 0.
func (e *Engine) Counter(addr uint64) uint64 {
	if p := e.counter(addr, false); p != nil {
		return *p
	}
	return 0
}

// SetCounter overrides the write counter of the line holding addr (used by
// sealing and by replay-attack tests that roll a counter back). As with
// Counter, the counter is the line's: callers pass the line address.
func (e *Engine) SetCounter(addr, ctr uint64) { *e.counter(addr, true) = ctr }

// SetCounters sets the write counters of consecutive lines, the first the
// line holding addr: line i's counter to ctrs[i]. It is SetCounter line by
// line, a counter block at a time.
func (e *Engine) SetCounters(addr uint64, ctrs []uint64) {
	line := addr / uint64(e.lineSize)
	for len(ctrs) > 0 {
		n := copy(e.block(line/blockLines, true)[line%blockLines:], ctrs)
		ctrs = ctrs[n:]
		line += uint64(n)
	}
}

// Pad computes the one-time pad for the line at addr under counter ctr.
func (e *Engine) Pad(addr, ctr uint64) []byte {
	pad := make([]byte, e.lineSize)
	e.padInto(pad, addr, ctr)
	return pad
}

// padInto writes the one-time pad for (addr, ctr) into dst, which must be
// lineSize bytes. Allocation-free: every external line fetch goes through
// here.
func (e *Engine) padInto(dst []byte, addr, ctr uint64) {
	for chunk := 0; chunk < e.PadChunks(); chunk++ {
		// Seed block: address, counter, chunk index. Unique per
		// (line, version, chunk) triple, which is what counter-mode security
		// requires.
		putUint64(e.seed[0:8], addr)
		putUint64(e.seed[8:16], ctr+uint64(chunk)<<48)
		e.cipher.Encrypt(dst[chunk*aes.BlockSize:], e.seed[:])
	}
}

// EncryptLine encrypts plaintext for the line at addr, bumping its counter.
// The returned ciphertext has the same length as the engine line size.
func (e *Engine) EncryptLine(addr uint64, plaintext []byte) ([]byte, error) {
	out := make([]byte, e.lineSize)
	if err := e.EncryptLineInto(out, addr, plaintext); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptLineInto is EncryptLine writing the ciphertext into dst (lineSize
// bytes) without allocating. dst must not alias plaintext.
func (e *Engine) EncryptLineInto(dst []byte, addr uint64, plaintext []byte) error {
	if len(plaintext) != e.lineSize {
		return fmt.Errorf("ctr: plaintext length %d != line size %d", len(plaintext), e.lineSize)
	}
	ctr := e.counter(addr, true)
	*ctr++
	e.emit(addr, 0)
	e.padInto(dst, addr, *ctr)
	xorInto(dst, plaintext)
	return nil
}

// DecryptLine decrypts ciphertext for the line at addr using its current
// counter.
func (e *Engine) DecryptLine(addr uint64, ciphertext []byte) ([]byte, error) {
	out := make([]byte, e.lineSize)
	if err := e.DecryptLineInto(out, addr, ciphertext); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptLineInto is DecryptLine writing the plaintext into dst (lineSize
// bytes) without allocating. dst must not alias ciphertext.
func (e *Engine) DecryptLineInto(dst []byte, addr uint64, ciphertext []byte) error {
	if len(ciphertext) != e.lineSize {
		return fmt.Errorf("ctr: ciphertext length %d != line size %d", len(ciphertext), e.lineSize)
	}
	e.emit(addr, 1)
	e.padInto(dst, addr, e.Counter(addr))
	xorInto(dst, ciphertext)
	return nil
}

// DecryptLineWithCounter decrypts with an explicit counter value. A replayed
// (stale) ciphertext decrypts correctly only with its stale counter; with the
// current counter it produces garbage — the property that makes counters plus
// a tree necessary for replay protection.
func (e *Engine) DecryptLineWithCounter(addr, ctr uint64, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != e.lineSize {
		return nil, fmt.Errorf("ctr: ciphertext length %d != line size %d", len(ciphertext), e.lineSize)
	}
	out := make([]byte, e.lineSize)
	e.padInto(out, addr, ctr)
	xorInto(out, ciphertext)
	return out, nil
}

// xorInto XORs b into dst element-wise.
func xorInto(dst, b []byte) {
	for i := range dst {
		dst[i] ^= b[i]
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
