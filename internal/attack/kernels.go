package attack

import (
	"fmt"

	"authpoint/internal/asm"
	"authpoint/internal/isa"
)

// This file holds the exploit program sources shared between the dynamic
// attacks and Kernels(), which exports each exploit's *effective* program:
// the plaintext the core actually executes after the ciphertext tampering
// lands. Under counter-mode malleability XORing old^new into the ciphertext
// yields exactly the new plaintext, so patching the assembled image is
// bit-identical to what a tampered run under the baseline policy decrypts
// and executes. Static analysis (internal/analysis) lints these programs,
// and the differential tests cross-check its findings against the bus
// traces of real runs.

// pointerConversionSecret is the address-like value the §3.2.1 adversary is
// after; it lands in the probe window so its disclosure is observable.
const pointerConversionSecret = ProbeBase + 0x4440

// binarySearchSecret is the 16-bit secret of the §3.2.2 exploit.
const binarySearchSecret = 0xBEE5

func pointerConversionSrc() string {
	return fmt.Sprintf(`
	_start:
		la  r1, head
		ld  r2, 0(r1)        ; first node
	walk:
		beq r2, r0, done
		ld  r2, 0(r2)        ; next pointer (the conversion target)
		b   walk
	done:
		halt
	.data
	node2:  .word 0          ; NULL terminator — the tamper target
	node1:  .word node2
	node0:  .word node1
	head:   .word node0
	secret: .word %d
	`, uint64(pointerConversionSecret))
}

func binarySearchSrc() string {
	// The taken arm lives in its own set of I-lines, so its appearance on
	// the bus reveals the branch direction: wrong-path sequential fetch is
	// bounded by the RUU+IFQ capacity (~160 instructions), so the 400-nop
	// moat guarantees the arm's I-line appears on the bus only if the branch
	// actually (speculatively) redirects there.
	return fmt.Sprintf(`
	_start:
		la   r1, secretp
		ld   r2, 0(r1)       ; secret (authentic)
		la   r3, constp
		ld   r4, 0(r3)       ; comparison constant (tampered per trial)
		blt  r2, r4, below
	atabove:
		addi r5, r0, 1
		halt
		%s
	below:
		addi r5, r0, 2
		halt
	.data
	secretp: .word %d
	constp:  .word 0
	`, nops(400), binarySearchSecret)
}

// shiftWindowKernelSrc is the §3.2.3/§3.3.1 disclosing kernel: load the
// secret, shift the chosen window down, and turn it into a probe fetch whose
// line address carries the window bits. LUI r3 builds the probe base; LUI r2
// the data base (the secret sits at its start).
func shiftWindowKernelSrc(dataBase uint64, shift int) string {
	return fmt.Sprintf(`
		lui  r3, %d
		lui  r2, %d
		ld   r1, 0(r2)
		srli r1, r1, %d
		andi r4, r1, 0x3f
		slli r4, r4, 6
		or   r5, r4, r3
		ld   r6, 0(r5)
		nop
		nop
		nop
		nop
		nop
	`, ProbeBase>>16, dataBase>>16, shift)
}

// ioKernelSrc is the I/O-port disclosing kernel: OUT the secret to port 0x80.
func ioKernelSrc(dataBase uint64) string {
	return fmt.Sprintf(`
		lui  r2, %d
		ld   r1, 0(r2)
		out  r1, 0x80
		nop
		nop
		nop
		nop
		nop
		nop
		nop
		nop
		nop
		nop
	`, dataBase>>16)
}

const bruteForcePageSrc = `
	_start:
		la  r1, ptr
		ld  r2, 0(r1)
		ld  r3, 0(r2)       ; dereference the tampered pointer
		halt
	.data
	ptr: .word 0x1000       ; innocent pointer (known plaintext)
	`

const memoryTaintSrc = `
	_start:
		la   r1, input
		ld   r2, 0(r1)       ; tampered input
		addi r2, r2, 1
		la   r3, sink
		sd   r2, 0(r3)       ; derived value
		; stream 512KB to force the dirty sink line out of the 256KB L2
		la   r4, wash
		li   r5, 8192
	evict:
		ld   r6, 0(r4)
		addi r4, r4, 64
		addi r5, r5, -1
		bne  r5, r0, evict
		halt
	.data
	input: .word 7
	.align 64
	sink:  .word 0
	.align 64
	wash:  .space 524288
	`

// Kernel is one exploit's effective post-tamper program, ready for static
// analysis or direct (plaintext-patched) execution.
type Kernel struct {
	Name string
	Prog *asm.Program
	// Channel names the leak channel the exploit drives: "addr" (data-fetch
	// address on the bus), "ctrl" (instruction-fetch addresses / control
	// flow), "io" (OUT port), "state" (authenticated-memory contamination).
	Channel string
	// NeedsProbe indicates the run requires the adversary's probe window
	// mapped at ProbeBase.
	NeedsProbe bool
}

// patchDataWord overwrites the 8-byte little-endian word at addr in the
// program's data image — the plaintext equivalent of xorU64 on ciphertext.
func patchDataWord(p *asm.Program, addr, v uint64) error {
	off := addr - p.DataBase
	if addr < p.DataBase || off+8 > uint64(len(p.Data)) {
		return fmt.Errorf("attack: patch at %#x outside data section", addr)
	}
	for i := 0; i < 8; i++ {
		p.Data[off+uint64(i)] = byte(v >> (8 * i))
	}
	return nil
}

// spliceText overwrites victim text words starting at instruction index at —
// the plaintext equivalent of injectKernel.
func spliceText(p *asm.Program, at int, words []uint32) error {
	if at < 0 || at+len(words) > len(p.Text) {
		return fmt.Errorf("attack: splice (%d words at %d) exceeds victim text (%d)", len(words), at, len(p.Text))
	}
	copy(p.Text[at:], words)
	return nil
}

// Kernels returns the effective program of every implemented exploit, plus
// the untampered passive victim. Each is what a machine under the baseline
// policy executes once the corresponding attack's ciphertext manipulation
// (if any) has landed.
func Kernels() ([]Kernel, error) {
	var out []Kernel
	add := func(name, channel string, needsProbe bool, build func() (*asm.Program, error)) error {
		p, err := build()
		if err != nil {
			return fmt.Errorf("attack: kernel %s: %w", name, err)
		}
		out = append(out, Kernel{Name: name, Prog: p, Channel: channel, NeedsProbe: needsProbe})
		return nil
	}

	if err := add("pointer-conversion", "addr", true, func() (*asm.Program, error) {
		p, err := asm.Assemble(pointerConversionSrc())
		if err != nil {
			return nil, err
		}
		// NULL terminator -> pointer at the secret.
		return p, patchDataWord(p, p.Symbols["node2"], p.Symbols["secret"])
	}); err != nil {
		return nil, err
	}

	if err := add("binary-search", "ctrl", false, func() (*asm.Program, error) {
		p, err := asm.Assemble(binarySearchSrc())
		if err != nil {
			return nil, err
		}
		// One representative trial: a guess above the secret, so the taken
		// arm (label below) is dynamically observable.
		return p, patchDataWord(p, p.Symbols["constp"], 0xFFFF)
	}); err != nil {
		return nil, err
	}

	if err := add("disclosing-kernel", "addr", true, func() (*asm.Program, error) {
		p, err := asm.Assemble(victimWithPrologue())
		if err != nil {
			return nil, err
		}
		k, err := asm.Assemble(shiftWindowKernelSrc(p.DataBase, 0))
		if err != nil {
			return nil, err
		}
		at := int((p.Symbols["f"] - p.TextBase) / isa.InstBytes)
		return p, spliceText(p, at, k.Text)
	}); err != nil {
		return nil, err
	}

	if err := add("io-port-disclosure", "io", false, func() (*asm.Program, error) {
		p, err := asm.Assemble(victimWithPrologue())
		if err != nil {
			return nil, err
		}
		k, err := asm.Assemble(ioKernelSrc(p.DataBase))
		if err != nil {
			return nil, err
		}
		at := int((p.Symbols["f"] - p.TextBase) / isa.InstBytes)
		return p, spliceText(p, at, k.Text)
	}); err != nil {
		return nil, err
	}

	if err := add("brute-force-page", "addr", true, func() (*asm.Program, error) {
		p, err := asm.Assemble(bruteForcePageSrc)
		if err != nil {
			return nil, err
		}
		// A mapped guess, as a successful trial would have found.
		return p, patchDataWord(p, p.Symbols["ptr"], ProbeBase|0x440)
	}); err != nil {
		return nil, err
	}

	if err := add("memory-taint", "state", false, func() (*asm.Program, error) {
		p, err := asm.Assemble(memoryTaintSrc)
		if err != nil {
			return nil, err
		}
		return p, patchDataWord(p, p.Symbols["input"], 0x4141)
	}); err != nil {
		return nil, err
	}

	if err := add("passive-control-flow", "ctrl", false, func() (*asm.Program, error) {
		return asm.Assemble(passiveVictim(passiveSecret))
	}); err != nil {
		return nil, err
	}

	pac, err := pacKernels()
	if err != nil {
		return nil, err
	}
	out = append(out, pac...)

	return out, nil
}
