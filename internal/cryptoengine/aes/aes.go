// Package aes implements the Rijndael block cipher (AES-128/192/256) from
// scratch. It is the cipher used by the secure processor model for memory
// encryption (counter mode) and for the CBC/CBC-MAC comparison scheme.
//
// The field arithmetic (S-box substitution, ShiftRows, MixColumns over
// GF(2^8), and the key schedule) is realized byte-oriented from FIPS 197 for
// auditability; the block-processing hot path then runs on T-tables derived
// from that arithmetic at init, because the simulator invokes the cipher for
// every external line fetch. The simulator's timing model still charges the
// latency of a pipelined hardware implementation (the paper's reference:
// ~80ns for 256-bit Rijndael), not the latency of this software.
//
// Correctness is established in tests against FIPS-197 vectors and against
// crypto/aes from the Go standard library.
package aes

import "fmt"

// BlockSize is the AES block size in bytes (128 bits, all key lengths).
const BlockSize = 16

// Cipher is an expanded-key AES instance for one key.
type Cipher struct {
	enc    []uint32 // encryption round keys
	dec    []uint32 // decryption round keys
	rounds int
}

// New creates a Cipher. The key must be 16, 24, or 32 bytes
// (AES-128/192/256).
func New(key []byte) (*Cipher, error) {
	switch len(key) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("aes: invalid key size %d", len(key))
	}
	c := &Cipher{rounds: 6 + len(key)/4}
	c.expandKey(key)
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

// sbox and inverse sbox, generated in init from the multiplicative inverse
// in GF(2^8) plus the affine transform (FIPS 197 §5.1.1). Generating them
// rather than embedding literals both shortens the code and self-checks the
// field arithmetic.
var (
	sbox  [256]byte
	isbox [256]byte
	// Multiplication tables for the fixed MixColumns coefficients; computed
	// once from mul so the hot encrypt/decrypt paths are table lookups.
	mul2, mul3, mul9, mul11, mul13, mul14 [256]byte
	// T-tables fusing SubBytes, ShiftRows, and MixColumns into four word
	// lookups per column per round (the standard software realization of
	// FIPS 197 §5.1). te[i][x] holds the MixColumns product column for a row-i
	// byte after substitution; td is the inverse-cipher analogue. Generated in
	// init from sbox/mul, so the byte-oriented reference arithmetic above is
	// still the single source of truth.
	te [4][256]uint32
	td [4][256]uint32
)

// mul multiplies a and b in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
func mul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// inv returns the multiplicative inverse of a in GF(2^8); inv(0)=0.
func inv(a byte) byte {
	if a == 0 {
		return 0
	}
	// a^(2^8-2) = a^254 by square-and-multiply.
	result := byte(1)
	base := a
	for e := 254; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = mul(result, base)
		}
		base = mul(base, base)
	}
	return result
}

func init() {
	for i := 0; i < 256; i++ {
		x := inv(byte(i))
		// Affine transform: b ^= rot(b,1)^rot(b,2)^rot(b,3)^rot(b,4) ^ 0x63.
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		isbox[y] = byte(i)
		b := byte(i)
		mul2[i] = mul(b, 2)
		mul3[i] = mul(b, 3)
		mul9[i] = mul(b, 9)
		mul11[i] = mul(b, 11)
		mul13[i] = mul(b, 13)
		mul14[i] = mul(b, 14)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		te[0][i] = uint32(mul2[s])<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(mul3[s])
		te[1][i] = uint32(mul3[s])<<24 | uint32(mul2[s])<<16 | uint32(s)<<8 | uint32(s)
		te[2][i] = uint32(s)<<24 | uint32(mul3[s])<<16 | uint32(mul2[s])<<8 | uint32(s)
		te[3][i] = uint32(s)<<24 | uint32(s)<<16 | uint32(mul3[s])<<8 | uint32(mul2[s])
		is := isbox[i]
		td[0][i] = uint32(mul14[is])<<24 | uint32(mul9[is])<<16 | uint32(mul13[is])<<8 | uint32(mul11[is])
		td[1][i] = uint32(mul11[is])<<24 | uint32(mul14[is])<<16 | uint32(mul9[is])<<8 | uint32(mul13[is])
		td[2][i] = uint32(mul13[is])<<24 | uint32(mul11[is])<<16 | uint32(mul14[is])<<8 | uint32(mul9[is])
		td[3][i] = uint32(mul9[is])<<24 | uint32(mul13[is])<<16 | uint32(mul11[is])<<8 | uint32(mul14[is])
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	w := make([]uint32, n)
	for i := 0; i < nk; i++ {
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1) << 24
	for i := nk; i < n; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ rcon
			rcon = uint32(mul2[rcon>>24]) << 24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	c.enc = w

	// Equivalent inverse cipher round keys: InvMixColumns applied to all
	// round keys except the first and last (FIPS 197 §5.3.5).
	c.dec = make([]uint32, n)
	for i := 0; i < n; i += 4 {
		j := n - 4 - i
		for k := 0; k < 4; k++ {
			rk := w[i+k]
			if i > 0 && i < n-4 {
				rk = invMixColumnWord(rk)
			}
			c.dec[j+k] = rk
		}
	}
}

// invMixColumnWord applies InvMixColumns to one column, by the
// multiplication tables init builds from mul: every cipher's key schedule
// runs it on each inner round key.
func invMixColumnWord(w uint32) uint32 {
	c0, c1, c2, c3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	return uint32(mul14[c0]^mul11[c1]^mul13[c2]^mul9[c3])<<24 |
		uint32(mul9[c0]^mul14[c1]^mul11[c2]^mul13[c3])<<16 |
		uint32(mul13[c0]^mul9[c1]^mul14[c2]^mul11[c3])<<8 |
		uint32(mul11[c0]^mul13[c1]^mul9[c2]^mul14[c3])
}

// state is the 4x4 AES state held column-major in four words.
type state [4]uint32

func loadState(src []byte) state {
	var s state
	for i := 0; i < 4; i++ {
		s[i] = uint32(src[4*i])<<24 | uint32(src[4*i+1])<<16 |
			uint32(src[4*i+2])<<8 | uint32(src[4*i+3])
	}
	return s
}

func (s *state) store(dst []byte) {
	for i := 0; i < 4; i++ {
		dst[4*i] = byte(s[i] >> 24)
		dst[4*i+1] = byte(s[i] >> 16)
		dst[4*i+2] = byte(s[i] >> 8)
		dst[4*i+3] = byte(s[i])
	}
}

func (s *state) addRoundKey(rk []uint32) {
	s[0] ^= rk[0]
	s[1] ^= rk[1]
	s[2] ^= rk[2]
	s[3] ^= rk[3]
}

// Encrypt encrypts one 16-byte block. dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	s := loadState(src)
	s.addRoundKey(c.enc[0:4])
	// Each round, column c draws its row-0 byte from column c, row 1 from
	// c+1, row 2 from c+2, row 3 from c+3 (ShiftRows), and the T-tables fold
	// in SubBytes and MixColumns.
	for r := 1; r < c.rounds; r++ {
		rk := c.enc[4*r : 4*r+4]
		s0 := te[0][s[0]>>24] ^ te[1][s[1]>>16&0xff] ^ te[2][s[2]>>8&0xff] ^ te[3][s[3]&0xff] ^ rk[0]
		s1 := te[0][s[1]>>24] ^ te[1][s[2]>>16&0xff] ^ te[2][s[3]>>8&0xff] ^ te[3][s[0]&0xff] ^ rk[1]
		s2 := te[0][s[2]>>24] ^ te[1][s[3]>>16&0xff] ^ te[2][s[0]>>8&0xff] ^ te[3][s[1]&0xff] ^ rk[2]
		s3 := te[0][s[3]>>24] ^ te[1][s[0]>>16&0xff] ^ te[2][s[1]>>8&0xff] ^ te[3][s[2]&0xff] ^ rk[3]
		s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	}
	// Final round: SubBytes + ShiftRows only.
	rk := c.enc[4*c.rounds : 4*c.rounds+4]
	s0 := uint32(sbox[s[0]>>24])<<24 | uint32(sbox[s[1]>>16&0xff])<<16 | uint32(sbox[s[2]>>8&0xff])<<8 | uint32(sbox[s[3]&0xff])
	s1 := uint32(sbox[s[1]>>24])<<24 | uint32(sbox[s[2]>>16&0xff])<<16 | uint32(sbox[s[3]>>8&0xff])<<8 | uint32(sbox[s[0]&0xff])
	s2 := uint32(sbox[s[2]>>24])<<24 | uint32(sbox[s[3]>>16&0xff])<<16 | uint32(sbox[s[0]>>8&0xff])<<8 | uint32(sbox[s[1]&0xff])
	s3 := uint32(sbox[s[3]>>24])<<24 | uint32(sbox[s[0]>>16&0xff])<<16 | uint32(sbox[s[1]>>8&0xff])<<8 | uint32(sbox[s[2]&0xff])
	s[0], s[1], s[2], s[3] = s0^rk[0], s1^rk[1], s2^rk[2], s3^rk[3]
	s.store(dst)
}

// Decrypt decrypts one 16-byte block. dst and src may overlap.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	s := loadState(src)
	s.addRoundKey(c.dec[0:4])
	// Equivalent inverse cipher (pre-transformed round keys): column c draws
	// its row-1 byte from column c-1, row 2 from c-2, row 3 from c-3
	// (InvShiftRows), with InvSubBytes and InvMixColumns folded into td.
	for r := 1; r < c.rounds; r++ {
		rk := c.dec[4*r : 4*r+4]
		s0 := td[0][s[0]>>24] ^ td[1][s[3]>>16&0xff] ^ td[2][s[2]>>8&0xff] ^ td[3][s[1]&0xff] ^ rk[0]
		s1 := td[0][s[1]>>24] ^ td[1][s[0]>>16&0xff] ^ td[2][s[3]>>8&0xff] ^ td[3][s[2]&0xff] ^ rk[1]
		s2 := td[0][s[2]>>24] ^ td[1][s[1]>>16&0xff] ^ td[2][s[0]>>8&0xff] ^ td[3][s[3]&0xff] ^ rk[2]
		s3 := td[0][s[3]>>24] ^ td[1][s[2]>>16&0xff] ^ td[2][s[1]>>8&0xff] ^ td[3][s[0]&0xff] ^ rk[3]
		s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	}
	// Final round: InvSubBytes + InvShiftRows only.
	rk := c.dec[4*c.rounds : 4*c.rounds+4]
	s0 := uint32(isbox[s[0]>>24])<<24 | uint32(isbox[s[3]>>16&0xff])<<16 | uint32(isbox[s[2]>>8&0xff])<<8 | uint32(isbox[s[1]&0xff])
	s1 := uint32(isbox[s[1]>>24])<<24 | uint32(isbox[s[0]>>16&0xff])<<16 | uint32(isbox[s[3]>>8&0xff])<<8 | uint32(isbox[s[2]&0xff])
	s2 := uint32(isbox[s[2]>>24])<<24 | uint32(isbox[s[1]>>16&0xff])<<16 | uint32(isbox[s[0]>>8&0xff])<<8 | uint32(isbox[s[3]&0xff])
	s3 := uint32(isbox[s[3]>>24])<<24 | uint32(isbox[s[2]>>16&0xff])<<16 | uint32(isbox[s[1]>>8&0xff])<<8 | uint32(isbox[s[0]&0xff])
	s[0], s[1], s[2], s[3] = s0^rk[0], s1^rk[1], s2^rk[2], s3^rk[3]
	s.store(dst)
}

// Rounds returns the number of rounds (10, 12, or 14), which the timing
// model uses to scale decryption latency with key size.
func (c *Cipher) Rounds() int { return c.rounds }
