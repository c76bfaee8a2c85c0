// Package aes is the block cipher of the secure processor model's memory
// encryption (counter mode, package ctr): AES (FIPS 197) with a 128-, 192- or
// 256-bit key, computed by the standard library's crypto/aes, which uses the
// host's AES instructions where it has them. The simulator's timing model
// charges the latency of a pipelined hardware unit (the paper's reference:
// ~80ns for 256-bit Rijndael), not the host's.
package aes

import (
	"crypto/aes"
	"crypto/cipher"
)

// BlockSize is the AES block size in bytes (128 bits, all key lengths).
const BlockSize = aes.BlockSize

// Cipher is an expanded-key AES instance for one key. It counts the blocks
// it encrypts or decrypts, so a Cipher is not safe for concurrent use.
type Cipher struct {
	b      cipher.Block
	blocks uint64
}

// New creates a Cipher. The key must be 16, 24, or 32 bytes
// (AES-128/192/256).
func New(key []byte) (*Cipher, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Cipher{b: b}, nil
}

// MustNew is New but panics on error.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

// Encrypt encrypts the 16-byte block src into dst. dst and src may be the
// same block but must not partially overlap; a short block or a partial
// overlap panics. Both slices escape to the heap, so a caller on a hot path
// passes buffers it reuses rather than stack arrays.
func (c *Cipher) Encrypt(dst, src []byte) {
	c.blocks++
	c.b.Encrypt(dst, src)
}

// Decrypt decrypts the 16-byte block src into dst, under the same rules as
// Encrypt.
func (c *Cipher) Decrypt(dst, src []byte) {
	c.blocks++
	c.b.Decrypt(dst, src)
}

// Blocks returns how many blocks the Cipher has encrypted or decrypted.
func (c *Cipher) Blocks() uint64 { return c.blocks }
