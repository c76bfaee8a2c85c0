package diffcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// canarySource is the fixed program whose run fingerprints the machine
// model. It walks a 16 KB buffer twice, a line at a time — L2 and DRAM
// misses, then hits, over four pages — with a store and a forwarded reload
// per line, and then runs a divide, a PAC sign/auth round trip, FP multiply
// and divide, and a call and return.
const canarySource = `_start:
	la   r12, buf
	li   r3, 16384
	li   r9, 2
	li   r1, 1
pass:
	li   r2, 0
line:
	add  r4, r12, r2
	ld   r5, 0(r4)
	add  r1, r1, r5
	addi r6, r2, 7
	sd   r6, 8(r4)
	ld   r7, 8(r4)
	mul  r1, r1, r7
	addi r2, r2, 64
	bltu r2, r3, line
	addi r9, r9, -1
	bne  r9, r0, pass
	div  r8, r1, r3
	signa r10, r12, r3
	autha r10, r10, r3
	ld   r11, 0(r10)
	fcvtif f1, r1
	fmul f2, f1, f1
	fdiv f3, f2, f1
	fcvtfi r13, f3
	jal  r14, fn
	out  r1, 1
	halt
fn:
	add  r1, r1, r13
	jalr r0, r14, 0
.data
buf: .space 16384
`

// canaryRun is the outcome of one canary run that a model fingerprint
// digests.
type canaryRun struct {
	Reason        string
	Cycles, Insts uint64
	Arch          [32]byte
}

// models memoizes ModelFingerprint per normalized policy for the process.
var models = struct {
	sync.Mutex
	fp map[policy.ControlPoint]string
}{fp: make(map[policy.ControlPoint]string)}

// ModelFingerprint returns the fingerprint of the machine model that the
// campaign cache keys of both checkers carry (campaign.Key.Model). It
// digests the default configuration both checkers start from and the cycle
// count and architectural digest of a fixed canary program under pt, so a
// change to any configured parameter, or to timing or behaviour made in
// code that the canary reaches, moves it and results of the older model stop
// being addressed. The first call for a policy runs the canary; later calls
// return the memoized value.
func ModelFingerprint(pt policy.ControlPoint) string {
	pt = pt.Normalize()
	models.Lock()
	defer models.Unlock()
	fp, ok := models.fp[pt]
	if !ok {
		fp = modelDigest(sim.DefaultConfig(), runCanary(pt))
		models.fp[pt] = fp
	}
	return fp
}

// modelDigest is the hex SHA-256 of cfg's Go-syntax rendering, which names
// every field with its value, and of the canary run c.
func modelDigest(cfg sim.Config, c canaryRun) string {
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n%+v\n", cfg, c)
	return hex.EncodeToString(h.Sum(nil))
}

// runCanary runs the canary program under pt on the default machine.
func runCanary(pt policy.ControlPoint) canaryRun {
	p, err := asm.Assemble(canarySource)
	if err != nil {
		panic("diffcheck: canary does not assemble: " + err.Error())
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = pt
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		return canaryRun{Reason: "machine: " + err.Error()}
	}
	defer m.Release()
	res, _ := m.Run() // a failed run is told apart by its stop reason
	return canaryRun{Reason: res.Reason.String(), Cycles: res.Cycles, Insts: res.Insts,
		Arch: m.ArchDigest(digestRanges(p, cfg.StackB)...)}
}
