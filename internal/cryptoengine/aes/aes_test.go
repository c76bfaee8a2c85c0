package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FIPS-197 Appendix C example vectors.
func TestFIPS197Vectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{
			"000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			"000102030405060708090a0b0c0d0e0f1011121314151617",
			"00112233445566778899aabbccddeeff",
			"dda97ca4864cdfe06eaf70a0ec0d7191",
		},
		{
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"00112233445566778899aabbccddeeff",
			"8ea2b7ca516745bfeafc49904b496089",
		},
	}
	for _, c := range cases {
		key, pt, ct := unhex(t, c.key), unhex(t, c.pt), unhex(t, c.ct)
		ci := MustNew(key)
		got := make([]byte, 16)
		ci.Encrypt(got, pt)
		if !bytes.Equal(got, ct) {
			t.Errorf("key %s: encrypt = %x want %x", c.key, got, ct)
		}
		back := make([]byte, 16)
		ci.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Errorf("key %s: decrypt = %x want %x", c.key, back, pt)
		}
	}
}

func TestInvalidKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33, 64} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

// Property: Decrypt is a left inverse of Encrypt for all keys/blocks.
func TestQuickRoundTrip(t *testing.T) {
	f := func(key [32]byte, pt [16]byte, keySel uint8) bool {
		sizes := []int{16, 24, 32}
		ci := MustNew(key[:sizes[int(keySel)%3]])
		var ct, back [16]byte
		ci.Encrypt(ct[:], pt[:])
		ci.Decrypt(back[:], ct[:])
		return back == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingDstSrc(t *testing.T) {
	ci := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = byte(i)
	}
	want := make([]byte, 16)
	ci.Encrypt(want, buf)
	ci.Encrypt(buf, buf) // in-place
	if !bytes.Equal(buf, want) {
		t.Error("in-place encrypt differs")
	}
}

func TestShortBlockPanics(t *testing.T) {
	ci := MustNew(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on short block")
		}
	}()
	ci.Encrypt(make([]byte, 8), make([]byte, 8))
}

func TestPartialOverlapPanics(t *testing.T) {
	ci := MustNew(make([]byte, 16))
	buf := make([]byte, 17)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on partially overlapping dst and src")
		}
	}()
	ci.Encrypt(buf[1:], buf[:16])
}

func BenchmarkEncrypt256(b *testing.B) {
	ci := MustNew(make([]byte, 32))
	src, dst := make([]byte, 16), make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		ci.Encrypt(dst, src)
	}
}
