package hmac

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha "crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// RFC 4231 test vectors for HMAC-SHA256.
func TestRFC4231(t *testing.T) {
	cases := []struct{ key, data, want string }{
		{
			"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
			"4869205468657265", // "Hi There"
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
		},
		{
			"4a656665", // "Jefe"
			"7768617420646f2079612077616e7420666f72206e6f7468696e673f",
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
		},
		{
			"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
			"dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd" + "dddd",
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
		},
	}
	for i, c := range cases {
		key, _ := hex.DecodeString(c.key)
		data, _ := hex.DecodeString(c.data)
		got := Mac(key, data)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: %x want %s", i, got, c.want)
		}
	}
}

func TestLongKeyIsHashed(t *testing.T) {
	key := bytes.Repeat([]byte{0xaa}, 131) // RFC 4231 case 6-style key > blocksize
	data := []byte("Test Using Larger Than Block-Size Key - Hash Key First")
	got := Mac(key, data)
	std := stdhmac.New(stdsha.New, key)
	std.Write(data)
	if !bytes.Equal(got[:], std.Sum(nil)) {
		t.Errorf("long-key mismatch with stdlib")
	}
}

// A Keyed state must give the same MAC as crypto/hmac and as the one-off
// Mac, for every key length up to past two hash blocks (keys longer than a
// block are hashed first) and every message length up to several blocks, and
// Verify must accept exactly that MAC, whole or truncated.
func TestAgainstStdlib(t *testing.T) {
	key := make([]byte, 130)
	msg := make([]byte, 300)
	rng := rand.New(rand.NewSource(3))
	rng.Read(key)
	rng.Read(msg)
	for kl := 0; kl <= len(key); kl++ {
		k := NewKeyed(key[:kl])
		std := stdhmac.New(stdsha.New, key[:kl])
		for ml := 0; ml <= len(msg); ml++ {
			m := msg[:ml]
			got := k.Mac(m)
			std.Reset()
			std.Write(m)
			if want := std.Sum(nil); !bytes.Equal(got[:], want) {
				t.Fatalf("keylen=%d msglen=%d: Keyed.Mac %x, crypto/hmac %x", kl, ml, got, want)
			}
			if one := Mac(key[:kl], m); one != got {
				t.Fatalf("keylen=%d msglen=%d: Keyed.Mac %x, Mac %x", kl, ml, got, one)
			}
			if !k.Verify(m, got[:]) || !k.Verify(m, got[:8]) {
				t.Fatalf("keylen=%d msglen=%d: Verify rejected its own MAC", kl, ml)
			}
			got[7] ^= 1
			if k.Verify(m, got[:8]) {
				t.Fatalf("keylen=%d msglen=%d: Verify accepted a wrong MAC", kl, ml)
			}
		}
	}
}

func TestTruncatedVerify(t *testing.T) {
	k := NewKeyed([]byte("processor-integrity-key"))
	msg := []byte("a 64-byte cache line of protected data.........................")
	full := k.Mac(msg)
	mac := full[:8]
	if !k.Verify(msg, mac) {
		t.Fatal("valid MAC rejected")
	}
	// Any single-bit tamper in the message must be detected.
	for bit := 0; bit < len(msg)*8; bit += 37 {
		tampered := append([]byte(nil), msg...)
		tampered[bit/8] ^= 1 << (bit % 8)
		if k.Verify(tampered, mac) {
			t.Fatalf("tampered bit %d accepted", bit)
		}
	}
	// Tampered MAC must be rejected.
	badMac := append([]byte(nil), mac...)
	badMac[0] ^= 1
	if k.Verify(msg, badMac) {
		t.Fatal("tampered MAC accepted")
	}
}

func TestVerifyEdgeCases(t *testing.T) {
	k := NewKeyed([]byte("k"))
	if k.Verify([]byte("m"), nil) {
		t.Error("empty MAC accepted")
	}
	if k.Verify([]byte("m"), make([]byte, 33)) {
		t.Error("oversize MAC accepted")
	}
}

// Property: verification succeeds iff the message is untampered.
func TestQuickTamperDetection(t *testing.T) {
	k := NewKeyed([]byte("quick-key"))
	f := func(msg []byte, flipByte uint16, flipBit uint8) bool {
		if len(msg) == 0 {
			return true
		}
		full := k.Mac(msg)
		mac := full[:8]
		if !k.Verify(msg, mac) {
			return false
		}
		tampered := append([]byte(nil), msg...)
		tampered[int(flipByte)%len(msg)] ^= 1 << (flipBit % 8)
		return !k.Verify(tampered, mac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The simulated authentication engine MACs every external line fetch and
// verifies every fetched line, so a warm Keyed must not allocate.
func TestKeyedDoesNotAllocate(t *testing.T) {
	k := NewKeyed([]byte("processor-integrity-key"))
	msg := make([]byte, 16+64)
	sum := k.Mac(msg)
	if n := testing.AllocsPerRun(100, func() { sum = k.Mac(msg) }); n != 0 {
		t.Errorf("Keyed.Mac made %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { k.Verify(msg, sum[:8]) }); n != 0 {
		t.Errorf("Keyed.Verify made %.0f allocations, want 0", n)
	}
}
