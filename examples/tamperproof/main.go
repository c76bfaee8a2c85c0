// Tamperproof: the trusted-computing scenario from the paper's
// introduction. A device runs licensed firmware from an encrypted,
// authenticated memory image. This example shows the three layers of the
// protection actually working on real ciphertext:
//
//  1. privacy   — the firmware's bytes at rest are indistinguishable from
//     noise (real AES-256 counter mode);
//  2. integrity — any ciphertext bit-flip is caught by the verification
//     engine before it can change architectural state;
//  3. freshness — replaying a stale (validly MACed) line is caught because
//     MACs cover the per-line write counters, and the MAC-tree mode extends
//     that to whole-memory freshness.
package main

import (
	"bytes"
	"fmt"
	"log"

	"authpoint"
)

const firmware = `
; Firmware main loop: read a "sensor", update a running checksum, write it
; to the telemetry port, repeat a few times, then power down.
_start:
	la   r1, sensor
	la   r2, state
	li   r3, 8
loop:
	ld   r4, 0(r1)
	add  r4, r4, r3      ; mix the iteration count in
	ld   r5, 0(r2)
	xor  r5, r5, r4
	slli r6, r5, 13
	xor  r5, r5, r6
	sd   r5, 0(r2)
	addi r3, r3, -1
	bne  r3, r0, loop
	out  r5, 0x7e
	halt
.data
sensor: .word 0x5eed
state:  .word 0
`

func main() {
	prog, err := authpoint.Assemble(firmware)
	if err != nil {
		log.Fatal(err)
	}
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyCommitPlusFetch

	// 1. Privacy: what an adversary dumping the DIMMs sees.
	m, err := authpoint.NewMachine(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	plain := prog.TextBytes()
	atRest := m.Memory.Read(prog.TextBase, len(plain))
	fmt.Printf("firmware text, plaintext first 16 bytes: % x\n", plain[:16])
	fmt.Printf("firmware text, ciphertext at rest:       % x\n", atRest[:16])
	if bytes.Equal(plain[:16], atRest[:16]) {
		log.Fatal("plaintext visible in external memory!")
	}

	// The untampered run works.
	res, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclean run: %v, telemetry=%#x\n", res.Reason, m.Core.OutLog()[0].Val)

	// 2. Integrity: one flipped ciphertext bit in the firmware.
	m2, _ := authpoint.NewMachine(cfg, prog)
	m2.Memory.XorRange(prog.TextBase+8, []byte{0x20})
	res2, _ := m2.Run()
	fmt.Printf("bit-flipped firmware: %v", res2.Reason)
	if res2.SecurityFault != nil {
		fmt.Printf(" — engine flagged line %#x\n", res2.SecurityFault.Addr)
	} else {
		fmt.Println(" — NOT DETECTED (this must not happen)")
	}

	// 3. Freshness: record the sensor line's ciphertext AND its MAC, let
	// the firmware overwrite state, then splice the stale pair back in.
	m3, _ := authpoint.NewMachine(cfg, prog)
	stateLine := m3.Prog.Symbols["state"] &^ 63
	oldCT := m3.Memory.Snapshot(stateLine, 64)
	// Run once so the state line is written back with a bumped counter.
	if _, err := m3.Ctrl.WriteBack(0, stateLine, make([]byte, 64)); err != nil {
		log.Fatal(err)
	}
	m3.Memory.Write(stateLine, oldCT) // replay stale ciphertext
	fres, err := m3.Ctrl.Fetch(1000, stateLine, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed stale line: verified=%v (MACs cover write counters)\n", fres.AuthOK)
	if fres.AuthOK {
		log.Fatal("replay accepted!")
	}
}
