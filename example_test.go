package authpoint_test

import (
	"fmt"

	"authpoint"
)

// Assemble a tiny program, run it on the paper's recommended configuration
// (authen-then-commit + authen-then-fetch), and read the result.
func Example() {
	prog, err := authpoint.Assemble(`
		_start:
			addi r1, r0, 6
			addi r2, r0, 7
			mul  r3, r1, r2
			out  r3, 0x10
			halt
	`)
	if err != nil {
		panic(err)
	}
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyCommitPlusFetch
	m, err := authpoint.NewMachine(cfg, prog)
	if err != nil {
		panic(err)
	}
	res, err := m.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Reason, m.Core.OutLog()[0].Val)
	// Output: halt 42
}

// Tampering with ciphertext at rest is detected by the verification engine:
// the machine raises a security exception instead of running the altered
// instruction stream.
func ExampleMachine_tamperDetection() {
	prog, _ := authpoint.Assemble(`
		_start:
			addi r1, r0, 1
			halt
	`)
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyThenCommit
	m, _ := authpoint.NewMachine(cfg, prog)
	m.Memory.XorRange(prog.TextBase, []byte{0x04}) // flip one ciphertext bit
	res, _ := m.Run()
	fmt.Println(res.Reason)
	// Output: security-fault
}

// The pointer-conversion exploit (paper §3.2.1) succeeds against
// authen-then-commit but not against authen-then-issue.
func ExamplePointerConversion() {
	weak, _ := authpoint.PointerConversion(authpoint.PolicyThenCommit)
	strong, _ := authpoint.PointerConversion(authpoint.PolicyThenIssue)
	fmt.Println("then-commit leaked:", weak.Leaked)
	fmt.Println("then-issue  leaked:", strong.Leaked)
	// Output:
	// then-commit leaked: true
	// then-issue  leaked: false
}

// Measure a workload's IPC under a scheme relative to the decrypt-only
// baseline.
func ExampleMeasure() {
	w, _ := authpoint.WorkloadByName("gapx")
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyThenWrite
	meas, err := authpoint.Measure(authpoint.Spec{
		Workload: w, Config: cfg, WarmupInsts: 5_000, MeasureInsts: 20_000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(meas.Insts, meas.IPC > 0)
	// Output: 20000 true
}
