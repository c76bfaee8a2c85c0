package report

import (
	"bytes"
	"strings"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

func runReport(t *testing.T, mutate func(*sim.Config)) string {
	t.Helper()
	p := asm.MustAssemble(`
		_start:
			la  r1, buf
			li  r2, 512
		loop:
			ld  r3, 0(r1)
			add r4, r4, r3
			addi r1, r1, 64
			addi r2, r2, -1
			bne r2, r0, loop
			halt
		.data
		buf: .space 32768
	`)
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Write(&buf, m, res)
	return buf.String()
}

func TestReportSections(t *testing.T) {
	out := runReport(t, nil)
	for _, want := range []string{
		"run: halt", "pipeline:", "cache L1I", "cache L1D", "cache L2",
		"tlb:", "dram:", "bus:", "secure memory:", "auth-requests",
		"crypto: aes-blocks", "decrypt->verify gap",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "tree:") || strings.Contains(out, "remap cache:") {
		t.Error("tree/remap sections should be absent in the default config")
	}
}

func TestReportOptionalSections(t *testing.T) {
	out := runReport(t, func(c *sim.Config) {
		c.Sec.UseTree = true
	})
	if !strings.Contains(out, "tree: node fetches") {
		t.Errorf("tree section missing:\n%s", out)
	}
	out = runReport(t, func(c *sim.Config) {
		c.Policy = policy.CommitPlusObfuscation
	})
	if !strings.Contains(out, "remap cache:") {
		t.Errorf("remap section missing:\n%s", out)
	}
}

func TestReportSecurityFault(t *testing.T) {
	p := asm.MustAssemble("_start:\n la r1, x\n ld r2, 0(r1)\n halt\n.data\nx: .word 1")
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	m.Memory.XorRange(m.Prog.Symbols["x"], []byte{1})
	res, _ := m.Run()
	var buf bytes.Buffer
	Write(&buf, m, res)
	if !strings.Contains(buf.String(), "security exception") {
		t.Errorf("missing security exception line:\n%s", buf.String())
	}
}
