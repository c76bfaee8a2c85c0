// Functional: develop and debug programs at interpreter speed, then measure
// them on the cycle-accurate secure machine. The functional machine is the
// same oracle the out-of-order core is differentially tested against, so
// architectural results always agree.
package main

import (
	"fmt"
	"log"
	"time"

	"authpoint"
)

const program = `
; Sieve of Eratosthenes over 4096 numbers; count primes.
_start:
	la   r1, flags
	li   r2, 4096
	addi r3, r0, 2       ; candidate
outer:
	slli r4, r3, 0
	add  r4, r3, r1
	lbu  r5, 0(r4)
	bne  r5, r0, next    ; already crossed out
	; cross out multiples
	add  r6, r3, r3
cross:
	bge  r6, r2, next
	add  r7, r6, r1
	addi r8, r0, 1
	sb   r8, 0(r7)
	add  r6, r6, r3
	b    cross
next:
	addi r3, r3, 1
	bne  r3, r2, outer
	; count primes
	addi r3, r0, 2
	addi r9, r0, 0
count:
	add  r4, r3, r1
	lbu  r5, 0(r4)
	bne  r5, r0, notprime
	addi r9, r9, 1
notprime:
	addi r3, r3, 1
	bne  r3, r2, count
	out  r9, 0x20
	halt
.data
flags: .space 4096
`

func main() {
	prog, err := authpoint.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: functional — instant architectural answer.
	f := authpoint.NewFunctional(prog)
	t0 := time.Now()
	f.Run(0)
	fmt.Printf("functional: %d primes below 4096, %d instructions in %v\n",
		f.Outs[0].Val, f.Insts, time.Since(t0).Round(time.Microsecond))

	// Phase 2: cycle-accurate on the secure machine.
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyCommitPlusFetch
	m, err := authpoint.NewMachine(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	res, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("timed:      %d primes, %d instructions, %d cycles (IPC %.3f) in %v\n",
		m.Core.OutLog()[0].Val, res.Insts, res.Cycles, res.IPC, time.Since(t0).Round(time.Millisecond))

	if m.Core.OutLog()[0].Val != f.Outs[0].Val {
		log.Fatal("functional and timed results disagree!")
	}
	fmt.Println("architectural results agree — the timing model changes when, never what.")
}
