package authpoint_test

import (
	"testing"

	"authpoint"
)

// The public API's quickstart path: assemble, run, tamper, detect.
func TestPublicAPIQuickstart(t *testing.T) {
	prog, err := authpoint.Assemble(`
		_start:
			la   r1, x
			ld   r2, 0(r1)
			addi r2, r2, 1
			sd   r2, 0(r1)
			halt
		.data
		x: .word 41
	`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyCommitPlusFetch
	m, err := authpoint.NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != authpoint.StopHalt {
		t.Fatalf("reason %v", res.Reason)
	}
	if got := m.Shadow.ReadUint(prog.Symbols["x"], 8); got != 42 {
		t.Fatalf("x = %d", got)
	}

	// Tampered run raises a security exception.
	m2, _ := authpoint.NewMachine(cfg, prog)
	m2.Memory.XorRange(prog.Symbols["x"], []byte{0xff})
	res2, _ := m2.Run()
	if res2.Reason != authpoint.StopSecurityFault {
		t.Fatalf("tampered run: %v", res2.Reason)
	}
}

func TestPublicAPIWorkloadCatalog(t *testing.T) {
	ws := authpoint.Workloads()
	if len(ws) != 18 {
		t.Fatalf("workloads %d", len(ws))
	}
	w, ok := authpoint.WorkloadByName("swimx")
	if !ok || !w.FP {
		t.Fatal("swimx lookup")
	}
	cfg := authpoint.DefaultConfig()
	cfg.Policy = authpoint.PolicyThenWrite
	meas, err := authpoint.Measure(authpoint.Spec{
		Workload: w, Config: cfg, WarmupInsts: 4_000, MeasureInsts: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if meas.IPC <= 0 {
		t.Fatalf("IPC %v", meas.IPC)
	}
}

func TestPublicAPIAttack(t *testing.T) {
	out, err := authpoint.PointerConversion(authpoint.PolicyThenCommit)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked || !out.Detected {
		t.Fatalf("outcome %v", out)
	}
	out, err = authpoint.PointerConversion(authpoint.PolicyThenIssue)
	if err != nil {
		t.Fatal(err)
	}
	if out.Leaked {
		t.Fatalf("then-issue leaked: %v", out)
	}
}

func TestSchemesList(t *testing.T) {
	params := authpoint.DefaultExperimentParams()
	if len(params.Workloads) != 18 {
		t.Fatalf("default params workloads %d", len(params.Workloads))
	}
	if len(authpoint.QuickExperimentParams().Workloads) >= len(params.Workloads) {
		t.Fatal("quick params should be a subset")
	}
}
