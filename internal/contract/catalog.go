package contract

import (
	"encoding/binary"
	"fmt"

	"authpoint/internal/analysis"
	"authpoint/internal/asm"
	"authpoint/internal/attack"
	"authpoint/internal/campaign"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// KernelCase is one attack kernel prepared for two-run contract checking:
// the effective post-tamper program plus the secret-variation recipe (which
// bytes to flip, how) and the expected observability class.
type KernelCase struct {
	// Name and Channel come from the attack catalog ("addr", "ctrl", "io",
	// "state").
	Name    string
	Channel string
	// Prog is the effective post-tamper program.
	Prog *asm.Program
	// Analysis is the base analysis configuration (explicit secret symbols
	// for kernels whose secret-carrying symbol has an innocent name).
	Analysis analysis.Options
	// Regions are the extra mapped windows the run needs (the probe window).
	Regions []sim.Region
	// Mask is XORed into the secret word to form the second image. Masks are
	// chosen so both images stay within the addresses the kernel's fetches
	// can legally touch (probe window, search range).
	Mask uint64
	// BusLeak is the catalog's ground truth: whether varying the secret is
	// observable on the bus at all. io-port and state-contamination kernels
	// leak through channels the bus adversary cannot see — their two-run
	// verdicts must be clean/imprecise, never licensed-by-observation.
	BusLeak bool
	// BusLeakUnder, when non-nil, refines BusLeak per policy point: the PAC
	// kernels leak on the bus under some auth-failure modes and are contained
	// under others. BusLeak stays the Baseline ground truth. When the
	// effective leak is closed by policy the static contract still licenses
	// the channel (taint flows through auth regardless of mode), so the
	// expected verdict is imprecise, never clean.
	BusLeakUnder func(policy.ControlPoint) bool
	// ObserveWatchdog marks kernels built on the non-halting victim: the
	// adversary view is the bus activity inside a bounded watchdog window,
	// matching how the attack experiments observe them.
	ObserveWatchdog bool
}

// LeaksUnder reports whether varying the kernel's secret is bus-observable
// under the given policy point: the per-policy refinement when the kernel has
// one, the constant ground truth otherwise.
func (kc KernelCase) LeaksUnder(pt policy.ControlPoint) bool {
	if kc.BusLeakUnder != nil {
		return kc.BusLeakUnder(pt)
	}
	return kc.BusLeak
}

// observeCycles is the bounded observation window for non-halting victim
// kernels, matching the attack experiments' watchdog.
const observeCycles = 200_000

// Catalog prepares every attack kernel for contract checking.
func Catalog() ([]KernelCase, error) {
	kernels, err := attack.Kernels()
	if err != nil {
		return nil, err
	}
	probe := []sim.Region{{Start: attack.ProbeBase, Size: attack.ProbeSize}}
	// Per-kernel secret-variation recipe. Masks keep the varied value inside
	// the kernel's legal fetch targets: pointer-valued secrets stay in the
	// probe window (flip an offset bit, not a base bit), the binary-search
	// secret flips a bit the guess discriminates, the disclosing kernel
	// flips low bits so a different 64-line window is probed.
	recipes := map[string]struct {
		mask      uint64
		symbols   []string
		busLeak   bool
		watchdog  bool
		leakUnder func(policy.ControlPoint) bool
	}{
		"pointer-conversion":   {mask: 0x1000, busLeak: true},
		"binary-search":        {mask: 0x10000, busLeak: true},
		"disclosing-kernel":    {mask: 0x15, busLeak: true, watchdog: true},
		"io-port-disclosure":   {mask: 0xFF, busLeak: false, watchdog: true},
		"brute-force-page":     {mask: 0x1000, symbols: []string{"ptr"}, busLeak: true},
		"memory-taint":         {mask: 0xFF, symbols: []string{"input"}, busLeak: false},
		"passive-control-flow": {mask: 0xFF, busLeak: true},
		// The PAC kernels' bus visibility depends on the pac/fpac dimension
		// and — for fault-at-auth — on where the memory-authentication gate
		// sits, because the gate decides how long the failing auth is held
		// before its fault retires. The closures record the machine's
		// deterministic behavior, pinned across the full lattice by
		// TestKernelLeaksLicensed (obfuscation is factored out separately,
		// as for the constant-BusLeak kernels).
		//
		// Substitution: poisoning always contains it (the poisoned address is
		// rejected before the bus). Fault-at-auth contains it too — unless the
		// commit gate holds the pointer's own line-MAC verify at retirement,
		// stalling the fault long enough for the dependent load to reach the
		// bus; the issue gate closes that window again by blocking the
		// dependent chain until the line is verified.
		"pac-pointer-substitution": {mask: 0x1000, symbols: []string{"sptr"}, busLeak: true,
			leakUnder: func(pt policy.ControlPoint) bool {
				k := pt.Knobs()
				return !k.PAC || (k.PACFault && k.GateCommit && !k.GateIssue)
			}},
		// Race: the kernel carries its own commit-blockers (a divide chain
		// anchored to the loaded pointer), so fault-at-auth loses the race at
		// nearly every gate position; only the fetch gate alone re-times the
		// dependent chain enough that the fault retires first. Poisoning wins
		// unconditionally.
		"pac-auth-use-race": {mask: 0x1000, symbols: []string{"sptr"}, busLeak: true,
			leakUnder: func(pt policy.ControlPoint) bool {
				k := pt.Knobs()
				if !k.PAC {
					return true
				}
				if !k.PACFault {
					return false
				}
				return !k.GateFetch || k.GateIssue || k.GateCommit
			}},
		// Gadget: re-signing through the victim's own sign instruction
		// defeats every auth-failure mode; the constant BusLeak applies.
		"pac-signing-gadget": {mask: 0x1000, symbols: []string{"sptr"}, busLeak: true},
	}
	var out []KernelCase
	for _, k := range kernels {
		r, ok := recipes[k.Name]
		if !ok {
			return nil, fmt.Errorf("contract: kernel %s has no secret-variation recipe", k.Name)
		}
		kc := KernelCase{
			Name:            k.Name,
			Channel:         k.Channel,
			Prog:            k.Prog,
			Analysis:        analysis.Options{SecretSymbols: r.symbols},
			Mask:            r.mask,
			BusLeak:         r.busLeak,
			BusLeakUnder:    r.leakUnder,
			ObserveWatchdog: r.watchdog,
		}
		if k.NeedsProbe {
			kc.Regions = probe
		}
		out = append(out, kc)
	}
	return out, nil
}

// KernelCheck is one kernel case prepared once for two-run checks under any
// policy: its contract derived and its two images patched. Checks of it
// under policies that differ only in their pointer-auth mode share runs
// whose auths all matched. Safe for concurrent use.
type KernelCheck struct {
	kc       KernelCase
	pp       *prepared
	siblings campaign.Siblings[viewKey, *views]
}

// PrepareKernel prepares the two-run check of one kernel case: image A is
// the kernel's own secret word, image B is that word with the case's mask
// XORed in.
func PrepareKernel(kc KernelCase) (*KernelCheck, error) {
	c, err := derive(kc.Prog, kc.Analysis)
	if err != nil {
		return nil, err
	}
	target, ok := patchableRange(kc.Prog, c.SecretRanges)
	if !ok {
		return nil, fmt.Errorf("contract: kernel %s has no secret range in its data segment", kc.Name)
	}
	n := target.End - target.Start
	if n > 8 {
		n = 8
	}
	a := make([]byte, n)
	copy(a, kc.Prog.Data[target.Start-kc.Prog.DataBase:])
	var word [8]byte
	copy(word[:], a)
	v := binary.LittleEndian.Uint64(word[:]) ^ kc.Mask
	binary.LittleEndian.PutUint64(word[:], v)
	b := append([]byte(nil), word[:n]...)
	return &KernelCheck{kc: kc, pp: withImages(kc.Prog, c, Options{SecretA: a, SecretB: b})}, nil
}

// Check runs the prepared kernel's two-run check under opt's policy, with
// the case's regions and observation window.
func (k *KernelCheck) Check(opt Options) Result {
	opt.Regions = k.kc.Regions
	if k.kc.ObserveWatchdog {
		opt.ObserveWatchdog = true
		if opt.WatchdogCycles == 0 {
			opt.WatchdogCycles = observeCycles
		}
	}
	return k.pp.check(opt, &k.siblings)
}
