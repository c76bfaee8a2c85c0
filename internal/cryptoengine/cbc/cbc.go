// Package cbc implements CBC-mode memory encryption and CBC-MAC integrity
// for one protected line. The paper uses [CBC + CBC-MAC] as the comparison
// point in Table 1: both its decryption and its authentication are *serial*
// in the number of 128-bit chunks, so neither overlaps the memory fetch the
// way counter-mode pad precomputation does.
package cbc

import (
	"fmt"

	"authpoint/internal/cryptoengine/aes"
)

// Engine encrypts/decrypts lines in CBC mode and MACs them with CBC-MAC.
// Encryption and MAC use independent keys (using one key for both is the
// classic CBC-MAC pitfall).
type Engine struct {
	enc      *aes.Cipher
	mac      *aes.Cipher
	lineSize int
}

// NewEngine creates a CBC engine with distinct encryption and MAC keys.
func NewEngine(encKey, macKey []byte, lineSize int) (*Engine, error) {
	if lineSize <= 0 || lineSize%aes.BlockSize != 0 {
		return nil, fmt.Errorf("cbc: line size %d is not a positive multiple of %d", lineSize, aes.BlockSize)
	}
	e, err := aes.New(encKey)
	if err != nil {
		return nil, err
	}
	m, err := aes.New(macKey)
	if err != nil {
		return nil, err
	}
	return &Engine{enc: e, mac: m, lineSize: lineSize}, nil
}

// Chunks returns N, the number of 128-bit chunks per line. Table 1 expresses
// both CBC latencies in terms of N: decrypting chunk n costs (n+1) serial
// cipher operations after the fetch; the MAC costs N serial operations.
func (e *Engine) Chunks() int { return e.lineSize / aes.BlockSize }

// iv derives a per-line IV from the line address. CBC with a fixed IV leaks
// equality of line prefixes; an address-derived IV is the standard fix and
// matches deployed secure-processor CBC designs.
func (e *Engine) iv(addr uint64) [aes.BlockSize]byte {
	var iv [aes.BlockSize]byte
	for i := 0; i < 8; i++ {
		iv[i] = byte(addr >> (8 * i))
	}
	e.enc.Encrypt(iv[:], iv[:])
	return iv
}

// EncryptLine CBC-encrypts one line.
func (e *Engine) EncryptLine(addr uint64, plaintext []byte) ([]byte, error) {
	if len(plaintext) != e.lineSize {
		return nil, fmt.Errorf("cbc: plaintext length %d != line size %d", len(plaintext), e.lineSize)
	}
	out := make([]byte, e.lineSize)
	prev := e.iv(addr)
	for c := 0; c < e.Chunks(); c++ {
		var blk [aes.BlockSize]byte
		for i := 0; i < aes.BlockSize; i++ {
			blk[i] = plaintext[c*aes.BlockSize+i] ^ prev[i]
		}
		e.enc.Encrypt(out[c*aes.BlockSize:], blk[:])
		copy(prev[:], out[c*aes.BlockSize:(c+1)*aes.BlockSize])
	}
	return out, nil
}

// DecryptLine CBC-decrypts one line.
func (e *Engine) DecryptLine(addr uint64, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != e.lineSize {
		return nil, fmt.Errorf("cbc: ciphertext length %d != line size %d", len(ciphertext), e.lineSize)
	}
	out := make([]byte, e.lineSize)
	prev := e.iv(addr)
	for c := 0; c < e.Chunks(); c++ {
		var blk [aes.BlockSize]byte
		e.enc.Decrypt(blk[:], ciphertext[c*aes.BlockSize:])
		for i := 0; i < aes.BlockSize; i++ {
			out[c*aes.BlockSize+i] = blk[i] ^ prev[i]
		}
		copy(prev[:], ciphertext[c*aes.BlockSize:(c+1)*aes.BlockSize])
	}
	return out, nil
}

// MacLine computes the CBC-MAC of one line (over the plaintext, bound to the
// line address via the first block).
func (e *Engine) MacLine(addr uint64, plaintext []byte) ([aes.BlockSize]byte, error) {
	var mac [aes.BlockSize]byte
	if len(plaintext) != e.lineSize {
		return mac, fmt.Errorf("cbc: plaintext length %d != line size %d", len(plaintext), e.lineSize)
	}
	for i := 0; i < 8; i++ {
		mac[i] = byte(addr >> (8 * i))
	}
	e.mac.Encrypt(mac[:], mac[:])
	for c := 0; c < e.Chunks(); c++ {
		for i := 0; i < aes.BlockSize; i++ {
			mac[i] ^= plaintext[c*aes.BlockSize+i]
		}
		e.mac.Encrypt(mac[:], mac[:])
	}
	return mac, nil
}

// VerifyLine reports whether mac is the CBC-MAC of plaintext for addr.
func (e *Engine) VerifyLine(addr uint64, plaintext, mac []byte) bool {
	want, err := e.MacLine(addr, plaintext)
	if err != nil || len(mac) != aes.BlockSize {
		return false
	}
	var diff byte
	for i := range want {
		diff |= want[i] ^ mac[i]
	}
	return diff == 0
}
