// Package interp is a functional instruction-set simulator for the
// authpoint ISA: no pipeline, no caches, no crypto — just architectural
// semantics, executed in program order.
//
// It serves two purposes:
//
//   - an *oracle* for the out-of-order core: differential tests run random
//     programs on both and require identical architectural outcomes
//     (registers, memory, I/O log, fault behaviour);
//   - a fast functional mode for workload development (millions of
//     instructions per second, versus the timing simulator's hundreds of
//     thousands of cycles).
package interp

import (
	"fmt"

	"authpoint/internal/asm"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/isa"
	"authpoint/internal/mem"
)

// StopReason says why execution ended.
type StopReason int

// Stop reasons.
const (
	StopHalt StopReason = iota
	StopMaxInsts
	StopFault
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopMaxInsts:
		return "max-insts"
	case StopFault:
		return "fault"
	}
	return "?"
}

// OutEvent is one OUT instruction's effect.
type OutEvent struct {
	Port uint32
	Val  uint64
}

// Machine is the functional machine state.
type Machine struct {
	PC    uint64
	Regs  [isa.NumIntRegs]uint64
	FRegs [isa.NumFPRegs]uint64 // float64 bit patterns

	Mem   *mem.Memory
	Space *mem.AddressSpace

	Outs  []OutEvent
	Insts uint64

	// PACMode selects the auth-failure behaviour of the pointer-
	// authentication instructions; the zero value (off) matches the
	// unprotected machine. Sign/strip are mode-independent.
	PACMode pacmac.Mode
	// AuthMismatches counts executed auths whose tag did not match. Only
	// those read PACMode, so a run that counts zero ends the same under
	// every mode.
	AuthMismatches uint64

	pacs      pacmac.Suite
	halted    bool
	faultKind string
	faultAddr uint64
}

// New builds a functional machine from an assembled program, mapping text,
// data, and a stack exactly like the timing simulator's loader.
func New(p *asm.Program) *Machine {
	m := &Machine{Mem: mem.New(), Space: mem.NewAddressSpace(), PC: p.Entry, pacs: pacmac.DefaultSuite()}
	text := p.TextBytes()
	m.Mem.Write(p.TextBase, text)
	m.Mem.Write(p.DataBase, p.Data)
	m.Space.MapRange(p.TextBase, uint64(len(text))+64)
	m.Space.MapRange(p.DataBase, uint64(len(p.Data))+64)
	const stackBase, stackSize = 0x700000, 64 << 10
	m.Space.MapRange(stackBase, stackSize)
	m.Regs[isa.RegSP] = stackBase + stackSize - 64
	return m
}

// MapExtra marks an additional range valid (mirrors sim.Region).
func (m *Machine) MapExtra(start, size uint64) { m.Space.MapRange(start, size) }

// Halted reports whether HALT executed.
func (m *Machine) Halted() bool { return m.halted }

// Fault returns the fault description, if any.
func (m *Machine) Fault() (kind string, addr uint64, ok bool) {
	return m.faultKind, m.faultAddr, m.faultKind != ""
}

// Run executes up to maxInsts instructions (0 = unbounded) and reports why
// it stopped.
func (m *Machine) Run(maxInsts uint64) StopReason {
	for {
		if m.halted {
			return StopHalt
		}
		if m.faultKind != "" {
			return StopFault
		}
		if maxInsts > 0 && m.Insts >= maxInsts {
			return StopMaxInsts
		}
		m.Step()
	}
}

func (m *Machine) setFault(kind string, addr uint64) {
	m.faultKind = kind
	m.faultAddr = addr
}

// Step executes one instruction.
func (m *Machine) Step() {
	if m.halted || m.faultKind != "" {
		return
	}
	if !m.Space.Valid(m.PC) {
		m.setFault("ifetch", m.PC)
		return
	}
	word := uint32(m.Mem.ReadUint(m.PC, 4))
	inst := isa.Decode(word)
	if !inst.Op.Valid() {
		m.setFault("illegal", m.PC)
		return
	}
	m.Insts++
	npc := m.PC + isa.InstBytes

	writeInt := func(r uint8, v uint64) {
		if r != isa.RegZero {
			m.Regs[r] = v
		}
	}

	switch inst.Op.Class() {
	case isa.ClassNop:
	case isa.ClassHalt:
		m.halted = true
	case isa.ClassALU:
		b := m.Regs[inst.Rs2]
		if inst.Op.HasImm() {
			b = isa.ImmOperand(inst.Imm)
		}
		writeInt(inst.Rd, isa.EvalALU(inst.Op, m.Regs[inst.Rs1], b))
	case isa.ClassMul:
		writeInt(inst.Rd, isa.EvalALU(inst.Op, m.Regs[inst.Rs1], m.Regs[inst.Rs2]))
	case isa.ClassLoad:
		addr := m.Regs[inst.Rs1] + uint64(int64(inst.Imm))
		raw, ok := m.load(addr, inst.MemBytes())
		if !ok {
			return
		}
		if inst.Op != isa.OpPREF {
			writeInt(inst.Rd, isa.SignExtendLoad(inst.Op, raw))
		}
	case isa.ClassFPLoad:
		addr := m.Regs[inst.Rs1] + uint64(int64(inst.Imm))
		raw, ok := m.load(addr, 8)
		if !ok {
			return
		}
		m.FRegs[inst.Rd] = raw
	case isa.ClassStore:
		addr := m.Regs[inst.Rs1] + uint64(int64(inst.Imm))
		if !m.store(addr, m.Regs[inst.Rs2], inst.MemBytes()) {
			return
		}
	case isa.ClassFPStore:
		addr := m.Regs[inst.Rs1] + uint64(int64(inst.Imm))
		if !m.store(addr, m.FRegs[inst.Rs2], 8) {
			return
		}
	case isa.ClassBranch:
		var taken bool
		if inst.Op == isa.OpFBLT || inst.Op == isa.OpFBGE {
			taken = isa.EvalFPBranch(inst.Op, f64(m.FRegs[inst.Rs1]), f64(m.FRegs[inst.Rs2]))
		} else {
			taken = isa.EvalBranch(inst.Op, m.Regs[inst.Rs1], m.Regs[inst.Rs2])
		}
		if taken {
			npc = isa.BranchTarget(m.PC, inst.Imm)
		}
	case isa.ClassJump:
		link := m.PC + isa.InstBytes
		if inst.Op == isa.OpJAL {
			npc = isa.BranchTarget(m.PC, inst.Imm)
		} else {
			npc = (m.Regs[inst.Rs1] + uint64(int64(inst.Imm))) &^ 3
		}
		writeInt(inst.Rd, link)
	case isa.ClassFPU:
		switch inst.Op {
		case isa.OpFCVTIF:
			m.FRegs[inst.Rd] = bits(isa.CvtIntToFP(m.Regs[inst.Rs1]))
		case isa.OpFCVTFI:
			writeInt(inst.Rd, isa.CvtFPToInt(f64(m.FRegs[inst.Rs1])))
		default:
			m.FRegs[inst.Rd] = bits(isa.EvalFPU(inst.Op, f64(m.FRegs[inst.Rs1]), f64(m.FRegs[inst.Rs2])))
		}
	case isa.ClassOut:
		m.Outs = append(m.Outs, OutEvent{Port: uint32(inst.Imm), Val: m.Regs[inst.Rs2]})
	case isa.ClassPAC:
		switch {
		case inst.Op == isa.OpSTRIP:
			writeInt(inst.Rd, pacmac.Strip(m.Regs[inst.Rs1]))
		case inst.Op.IsPACSign():
			writeInt(inst.Rd, m.pacs.Sign(m.Regs[inst.Rs1], m.Regs[inst.Rs2], inst.Op.PACUsesKeyB()))
		default: // auth
			v, ok, matched := m.pacs.Auth(m.Regs[inst.Rs1], m.Regs[inst.Rs2], inst.Op.PACUsesKeyB(), m.PACMode)
			if !matched {
				m.AuthMismatches++
			}
			if !ok {
				m.setFault("pac-auth", m.PC)
				return
			}
			writeInt(inst.Rd, v)
		}
	default:
		m.setFault("illegal", m.PC)
		return
	}
	if m.halted || m.faultKind != "" {
		return
	}
	m.PC = npc
}

func (m *Machine) load(addr uint64, size int) (uint64, bool) {
	if addr%uint64(size) != 0 {
		m.setFault("misaligned", addr)
		return 0, false
	}
	if !m.Space.Valid(addr) {
		m.setFault("load", addr)
		m.Space.Fault(addr)
		return 0, false
	}
	return m.Mem.ReadUint(addr, size), true
}

func (m *Machine) store(addr uint64, v uint64, size int) bool {
	if addr%uint64(size) != 0 {
		m.setFault("misaligned", addr)
		return false
	}
	if !m.Space.Valid(addr) {
		m.setFault("store", addr)
		m.Space.Fault(addr)
		return false
	}
	m.Mem.WriteUint(addr, v, size)
	return true
}

// String summarizes machine state (debugging aid).
func (m *Machine) String() string {
	return fmt.Sprintf("interp{pc=%#x insts=%d halted=%v fault=%q}", m.PC, m.Insts, m.halted, m.faultKind)
}
