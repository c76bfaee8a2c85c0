// Package authpoint is a cycle-level secure-processor simulator that
// reproduces "Authentication Control Point and Its Implications For Secure
// Processor Design" (Shi & Lee, MICRO 2006).
//
// The library models an 8-wide out-of-order processor whose external memory
// is encrypted (AES in counter mode) and integrity-protected
// (truncated HMAC-SHA256 per line, optionally a CHTree-style MAC tree), with
// a front-side bus whose address trace is the adversary-visible side channel.
// The paper's design space — where completed integrity verification must
// gate execution — is expressed as a ControlPoint: a composition of
// orthogonal gate dimensions (issue, write, commit, fetch, obfuscation).
// The canonical points are re-exported here:
//
//	PolicyBaseline              decryption only (normalization baseline)
//	PolicyAuthOnly              authenticate, gate nothing
//	PolicyThenIssue             authen-then-issue
//	PolicyThenWrite             authen-then-write
//	PolicyThenCommit            authen-then-commit
//	PolicyThenFetch             authen-then-fetch (LastRequest variant)
//	PolicyCommitPlusFetch       authen-then-commit+fetch
//	PolicyCommitPlusObfuscation authen-then-commit+obfuscation
//
// Arbitrary lattice points compose with ComposePolicy or parse from their
// canonical names ("authen-then-issue+obfuscation") with ParsePolicy.
//
// Quick start:
//
//	prog, _ := authpoint.Assemble(src)       // assemble a program
//	cfg := authpoint.DefaultConfig()          // Table 3 machine
//	cfg.Policy = authpoint.PolicyThenCommit
//	m, _ := authpoint.NewMachine(cfg, prog)
//	res, _ := m.Run()
//	fmt.Println(res.IPC, res.Reason)
//
// The workload catalog (18 synthetic SPEC2000 analogues), the measurement
// harness, the exploit suite of Section 3, and the per-figure experiment
// drivers are re-exported below; see DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package authpoint

import (
	"authpoint/internal/asm"
	"authpoint/internal/attack"
	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/interp"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// Core simulation types.
type (
	// Config is the full machine configuration (pipeline, caches, DRAM,
	// bus, crypto engines, control point).
	Config = sim.Config
	// ControlPoint is a composable authentication control point: the policy
	// layer's value type (orthogonal gate dimensions, lattice-composable).
	ControlPoint = policy.ControlPoint
	// Machine is an assembled secure-processor system.
	Machine = sim.Machine
	// Result summarizes a run.
	Result = sim.Result
	// StopReason says why a run ended.
	StopReason = sim.StopReason
	// Region is an extra protected+mapped address range.
	Region = sim.Region
	// Program is an assembled binary image.
	Program = asm.Program
)

// Stop reasons.
const (
	StopHalt          = sim.StopHalt
	StopMaxInsts      = sim.StopMaxInsts
	StopSecurityFault = sim.StopSecurityFault
	StopArchFault     = sim.StopArchFault
	StopWatchdog      = sim.StopWatchdog
)

// Canonical control points (Section 4.2/4.3 of the paper, policy layer).
var (
	PolicyBaseline              = policy.Baseline
	PolicyAuthOnly              = policy.AuthOnly
	PolicyThenIssue             = policy.ThenIssue
	PolicyThenWrite             = policy.ThenWrite
	PolicyThenCommit            = policy.ThenCommit
	PolicyThenFetch             = policy.ThenFetch
	PolicyCommitPlusFetch       = policy.CommitPlusFetch
	PolicyCommitPlusObfuscation = policy.CommitPlusObfuscation
)

// ParsePolicy resolves a canonical or composed control-point name
// ("authen-then-commit", "authen-then-issue+obfuscation", legacy aliases like
// "commit+fetch") to its lattice point.
func ParsePolicy(name string) (ControlPoint, error) { return policy.Parse(name) }

// ComposePolicy joins two lattice points: the result gates at the union of
// both compositions' dimensions.
func ComposePolicy(a, b ControlPoint) ControlPoint { return policy.Compose(a, b) }

// Policies lists every registered canonical control point in registration
// order.
func Policies() []ControlPoint {
	var out []ControlPoint
	for _, e := range policy.Registered() {
		out = append(out, e.Point)
	}
	return out
}

// DefaultConfig returns the paper's Table 3 machine (256KB L2, 128-entry
// RUU, 80ns decrypt, 74ns MAC) under the baseline policy.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Assemble assembles authpoint assembly into a Program.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// NewMachine builds a machine and loads the program.
func NewMachine(cfg Config, p *Program) (*Machine, error) { return sim.NewMachine(cfg, p) }

// NewMachineWithRegions is NewMachine plus extra protected regions (e.g.
// probe windows for side-channel experiments).
func NewMachineWithRegions(cfg Config, p *Program, extra []Region) (*Machine, error) {
	return sim.NewMachineWithRegions(cfg, p, extra)
}

// Workload types and catalog.
type (
	// Workload is one synthetic benchmark kernel.
	Workload = workload.Workload
)

// Workloads returns the 18 synthetic SPEC2000-analogue kernels (9 INT + 9 FP).
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks a kernel up by name (e.g. "mcfx").
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// Measurement harness.
type (
	// Spec describes one measured run (workload, config, windows).
	Spec = harness.Spec
	// Measurement is a measured-window result.
	Measurement = harness.Measurement
)

// Measure runs one warmup+measure simulation.
func Measure(spec Spec) (Measurement, error) { return harness.Measure(spec) }

// Exploit suite (Section 3).
type (
	// AttackOutcome reports one exploit attempt.
	AttackOutcome = attack.Outcome
)

// PointerConversion runs the linked-list pointer-conversion exploit (§3.2.1).
func PointerConversion(p ControlPoint) (AttackOutcome, error) { return attack.PointerConversion(p) }

// BinarySearch runs the comparison-constant binary-search exploit (§3.2.2).
func BinarySearch(p ControlPoint) (AttackOutcome, error) { return attack.BinarySearch(p) }

// DisclosingKernel runs the code-injection shift-window exploit (§3.2.3+§3.3.1).
func DisclosingKernel(p ControlPoint) (AttackOutcome, error) { return attack.DisclosingKernel(p) }

// IOPortDisclosure runs the I/O-port disclosing kernel (§3.2.3).
func IOPortDisclosure(p ControlPoint) (AttackOutcome, error) { return attack.IOPortDisclosure(p) }

// MemoryTaint checks whether unverified data can contaminate external memory.
func MemoryTaint(p ControlPoint) (AttackOutcome, error) { return attack.MemoryTaint(p) }

// BruteForcePage runs random page-address tampering (§3.3.2).
func BruteForcePage(p ControlPoint, trials int) (leaks, faults int, err error) {
	return attack.BruteForcePage(p, trials)
}

// PassiveOutcome reports the no-tampering control-flow reconstruction attack.
type PassiveOutcome = attack.PassiveOutcome

// PassiveControlFlow runs the §3.1 natural-execution side channel: the
// victim is untampered; its secret-dependent control flow is reconstructed
// from the fetch-address trace. Only address obfuscation closes this channel.
func PassiveControlFlow(p ControlPoint) (PassiveOutcome, error) {
	return attack.PassiveControlFlow(p)
}

// Functional (untimed) execution.
type (
	// Functional is the in-order instruction-set simulator: no pipeline, no
	// caches, no crypto — architectural semantics at millions of
	// instructions per second. It doubles as the oracle the timing core is
	// differentially tested against.
	Functional = interp.Machine
)

// NewFunctional builds a functional machine for a program (same memory
// layout as NewMachine).
func NewFunctional(p *Program) *Functional { return interp.New(p) }

// Experiment drivers (every table and figure of the evaluation).
type (
	// ExperimentParams sets sweep sizes and the workload subset.
	ExperimentParams = experiments.Params
	// Sweep is a normalized-IPC experiment result (Figure 7/10/12 family).
	Sweep = experiments.Sweep
)

// DefaultExperimentParams covers all 18 kernels at default windows.
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }

// QuickExperimentParams is a fast subset for smoke runs.
func QuickExperimentParams() ExperimentParams { return experiments.QuickParams() }
