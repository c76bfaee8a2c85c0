package ctr

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func newEngine(t *testing.T, lineSize int) *Engine {
	t.Helper()
	e, err := NewEngine(make([]byte, 32), lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRoundTrip(t *testing.T) {
	e := newEngine(t, 64)
	pt := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(pt)
	ct, err := e.EncryptLine(0x1000, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back, err := e.DecryptLine(0x1000, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
}

// Chunk i of a line's pad is AES, under the engine's key, of the block
// LE64(addr) || LE64(ctr + i<<48), and a line encrypts to its plaintext XOR
// the pad of its new counter.
func TestPadLayout(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 32)
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, lineSize := range []int{64, 128} {
		e, err := NewEngine(key, lineSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ addr, ctr uint64 }{{0x1000, 1}, {0xdeadbeef40, 0x0123456789abcdef}, {^uint64(0) &^ 127, ^uint64(0)}} {
			pad := e.Pad(c.addr, c.ctr)
			for i := 0; i < lineSize/aes.BlockSize; i++ {
				var in, want [aes.BlockSize]byte
				binary.LittleEndian.PutUint64(in[:8], c.addr)
				binary.LittleEndian.PutUint64(in[8:], c.ctr+uint64(i)<<48)
				block.Encrypt(want[:], in[:])
				if got := pad[i*aes.BlockSize : (i+1)*aes.BlockSize]; !bytes.Equal(got, want[:]) {
					t.Errorf("%d-byte line %#x counter %#x: pad chunk %d is %x, want %x", lineSize, c.addr, c.ctr, i, got, want)
				}
			}
		}
		pt := make([]byte, lineSize)
		rand.New(rand.NewSource(2)).Read(pt)
		ct, err := e.EncryptLine(0x2000, pt)
		if err != nil {
			t.Fatal(err)
		}
		pad := e.Pad(0x2000, e.Counter(0x2000))
		for j := range ct {
			if ct[j] != pt[j]^pad[j] {
				t.Fatalf("%d-byte line: ciphertext byte %d is %#x, want plaintext XOR pad %#x", lineSize, j, ct[j], pt[j]^pad[j])
			}
		}
	}
}

func TestInvalidSizes(t *testing.T) {
	if _, err := NewEngine(make([]byte, 32), 15); err == nil {
		t.Error("line size 15 accepted")
	}
	if _, err := NewEngine(make([]byte, 32), 0); err == nil {
		t.Error("line size 0 accepted")
	}
	if _, err := NewEngine(make([]byte, 5), 64); err == nil {
		t.Error("bad key accepted")
	}
	e := newEngine(t, 64)
	if _, err := e.EncryptLine(0, make([]byte, 32)); err == nil {
		t.Error("short plaintext accepted")
	}
	if _, err := e.DecryptLine(0, make([]byte, 32)); err == nil {
		t.Error("short ciphertext accepted")
	}
	if _, err := e.DecryptLineWithCounter(0, 1, make([]byte, 32)); err == nil {
		t.Error("short ciphertext accepted (explicit counter)")
	}
}

// The decisive property for the paper: counter mode is bit-malleable.
// Flipping ciphertext bit i flips exactly plaintext bit i.
func TestMalleability(t *testing.T) {
	e := newEngine(t, 64)
	pt := make([]byte, 64)
	for i := range pt {
		pt[i] = byte(i)
	}
	ct, _ := e.EncryptLine(0x2000, pt)
	for _, bit := range []int{0, 7, 63, 100, 511} {
		tampered := append([]byte(nil), ct...)
		tampered[bit/8] ^= 1 << (bit % 8)
		dec, _ := e.DecryptLine(0x2000, tampered)
		wanted := append([]byte(nil), pt...)
		wanted[bit/8] ^= 1 << (bit % 8)
		if !bytes.Equal(dec, wanted) {
			t.Fatalf("bit %d: malleability violated", bit)
		}
	}
}

// Pointer-conversion building block: XORing the ciphertext with
// (oldValue XOR newValue) rewrites the plaintext to newValue exactly.
func TestChosenPlaintextRewrite(t *testing.T) {
	e := newEngine(t, 64)
	pt := make([]byte, 64) // a NULL pointer lives at offset 16
	ct, _ := e.EncryptLine(0x3000, pt)
	target := uint64(0xdeadbeef)
	tampered := append([]byte(nil), ct...)
	for i := 0; i < 8; i++ {
		tampered[16+i] ^= 0 ^ byte(target>>(8*i)) // old value is zero
	}
	dec, _ := e.DecryptLine(0x3000, tampered)
	got := uint64(0)
	for i := 0; i < 8; i++ {
		got |= uint64(dec[16+i]) << (8 * i)
	}
	if got != target {
		t.Fatalf("rewrite produced %#x want %#x", got, target)
	}
}

func TestCounterAdvancesPerWrite(t *testing.T) {
	e := newEngine(t, 32)
	pt := make([]byte, 32)
	if e.Counter(0x40) != 0 {
		t.Fatal("fresh counter nonzero")
	}
	ct1, _ := e.EncryptLine(0x40, pt)
	ct2, _ := e.EncryptLine(0x40, pt)
	if e.Counter(0x40) != 2 {
		t.Fatalf("counter = %d want 2", e.Counter(0x40))
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("same pad reused across writes")
	}
}

// Replay: old ciphertext under the current counter decrypts to garbage, but
// decrypts correctly under its stale counter — the reason counter integrity
// (tree protection) matters.
func TestReplayNeedsStaleCounter(t *testing.T) {
	e := newEngine(t, 32)
	old := []byte("the old secret value 32 bytes!!!")
	ct1, _ := e.EncryptLine(0x80, old)
	ct2, _ := e.EncryptLine(0x80, make([]byte, 32)) // overwrite
	_ = ct2
	dec, _ := e.DecryptLine(0x80, ct1) // replay old ciphertext
	if bytes.Equal(dec, old) {
		t.Fatal("replayed ciphertext decrypted under new counter")
	}
	dec, _ = e.DecryptLineWithCounter(0x80, 1, ct1)
	if !bytes.Equal(dec, old) {
		t.Fatal("stale counter should decrypt replayed ciphertext")
	}
}

func TestPadsUniqueAcrossAddressesAndCounters(t *testing.T) {
	e := newEngine(t, 32)
	seen := map[string]bool{}
	for addr := uint64(0); addr < 8; addr++ {
		for ctr := uint64(0); ctr < 8; ctr++ {
			p := string(e.Pad(addr*32, ctr))
			if seen[p] {
				t.Fatalf("pad reuse at addr=%d ctr=%d", addr, ctr)
			}
			seen[p] = true
		}
	}
}

func TestPadChunks(t *testing.T) {
	if newEngine(t, 64).PadChunks() != 4 {
		t.Error("64B line should use 4 AES blocks")
	}
	if newEngine(t, 32).PadChunks() != 2 {
		t.Error("32B line should use 2 AES blocks")
	}
}

// Every external line fetch and write-back runs a line through the engine,
// so once a line's counter block exists neither direction may allocate.
func TestLineIntoDoesNotAllocate(t *testing.T) {
	e := newEngine(t, 64)
	pt, ct := make([]byte, 64), make([]byte, 64)
	if err := e.EncryptLineInto(ct, 0x1000, pt); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.EncryptLineInto(ct, 0x1000, pt) }); n != 0 {
		t.Errorf("EncryptLineInto made %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.DecryptLineInto(pt, 0x1000, ct) }); n != 0 {
		t.Errorf("DecryptLineInto made %.0f allocations, want 0", n)
	}
}

// Property: decrypt(encrypt(pt)) == pt for arbitrary lines and addresses.
func TestQuickRoundTrip(t *testing.T) {
	e := newEngine(t, 32)
	f := func(addr uint64, data [32]byte) bool {
		ct, err := e.EncryptLine(addr, data[:])
		if err != nil {
			return false
		}
		dec, err := e.DecryptLine(addr, ct)
		return err == nil && bytes.Equal(dec, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetCounter(t *testing.T) {
	e := newEngine(t, 32)
	e.SetCounter(0x100, 41)
	pt := make([]byte, 32)
	e.EncryptLine(0x100, pt)
	if e.Counter(0x100) != 42 {
		t.Fatalf("counter %d want 42", e.Counter(0x100))
	}
}

// Property: the blocked counter table agrees with a map from line address
// to counter under random SetCounter, EncryptLine and Counter calls on
// lines spread over several blocks, at low and high addresses. Blocks 6 and
// 7 of each base are only ever read: they read 0 and are never allocated.
func TestQuickCountersAgainstMap(t *testing.T) {
	const lineSize = 64
	e := newEngine(t, lineSize)
	ref := map[uint64]uint64{}
	bases := []uint64{0, 0x7000_0000, 1 << 44}
	pt := make([]byte, lineSize)
	f := func(op uint8, line uint16, base uint8, v uint64) bool {
		blocks := 8
		if op%3 != 2 {
			blocks = 6 // writes stay out of blocks 6 and 7
		}
		addr := bases[int(base)%len(bases)] + uint64(int(line)%(blocks*blockLines))*lineSize
		switch op % 3 {
		case 0:
			e.SetCounter(addr, v)
			ref[addr] = v
		case 1:
			pt[0] = byte(v)
			ct, err := e.EncryptLine(addr, pt)
			if err != nil {
				return false
			}
			ref[addr]++
			// The pad is the one for the line's new counter.
			if dec, _ := e.DecryptLineWithCounter(addr, ref[addr], ct); !bytes.Equal(dec, pt) {
				t.Logf("line %#x: EncryptLine did not use counter %d", addr, ref[addr])
				return false
			}
		}
		if got := e.Counter(addr); got != ref[addr] {
			t.Logf("line %#x: counter %d, reference %d", addr, got, ref[addr])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	for a, v := range ref {
		if got := e.Counter(a); got != v {
			t.Errorf("line %#x: counter %d, reference %d", a, got, v)
		}
	}
	if n := len(e.blocks); n > 6*len(bases) {
		t.Errorf("%d counter blocks allocated, want at most %d: reads allocate", n, 6*len(bases))
	}
}
