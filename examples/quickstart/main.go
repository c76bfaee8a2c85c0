// Quickstart: assemble a small program, run it on the secure processor
// under two authentication control points, and show both the performance
// and the tamper-detection behaviour.
package main

import (
	"fmt"
	"log"

	"authpoint"
)

const program = `
; Compute the dot product of two small vectors, store the result, and emit
; it to an I/O port.
_start:
	la   r1, a
	la   r2, b
	li   r3, 16          ; elements
	fadd f6, f7, f7      ; acc = 0 (f7 is never written: reads as 0)
loop:
	fld  f1, 0(r1)
	fld  f2, 0(r2)
	fmul f3, f1, f2
	fadd f6, f6, f3
	addi r1, r1, 8
	addi r2, r2, 8
	addi r3, r3, -1
	bne  r3, r0, loop
	la   r4, result
	fsd  f6, 0(r4)
	fcvtfi r5, f6
	out  r5, 0x10
	halt
.data
a:      .float 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
b:      .float 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2
result: .float 0
`

func main() {
	prog, err := authpoint.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	// Run under the paper's recommended secure point and under the
	// conservative one; every memory line the program touches is decrypted
	// with real AES counter mode and verified with real HMAC-SHA256.
	for _, p := range []authpoint.ControlPoint{
		authpoint.PolicyThenCommit,
		authpoint.PolicyThenIssue,
	} {
		m, err := authpoint.NewMachine(configFor(p), prog)
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s: %v after %d cycles (IPC %.3f), dot product = %d\n",
			p, res.Reason, res.Cycles, res.IPC, m.Core.OutLog()[0].Val)
	}

	// Now the point of the whole architecture: flip one bit of ciphertext
	// in external memory and run again.
	m, err := authpoint.NewMachine(configFor(authpoint.PolicyThenCommit), prog)
	if err != nil {
		log.Fatal(err)
	}
	m.Memory.XorRange(prog.DataBase, []byte{0x01}) // tamper vector a[0]
	res, _ := m.Run()
	fmt.Printf("%-20s: %v", "tampered run", res.Reason)
	if res.SecurityFault != nil {
		fmt.Printf(" (line %#x flagged by the verification engine at cycle %d)",
			res.SecurityFault.Addr, res.SecurityFault.Cycle)
	}
	fmt.Println()
}

func configFor(p authpoint.ControlPoint) authpoint.Config {
	cfg := authpoint.DefaultConfig()
	cfg.Policy = p
	return cfg
}
