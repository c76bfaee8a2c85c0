// Package isa defines the instruction set architecture executed by the
// secure processor model: a 64-bit RISC machine with fixed 32-bit
// instruction words, 32 integer registers, and 32 floating-point registers.
//
// The ISA is deliberately Alpha-flavoured (the paper simulates SimpleScalar
// running Alpha binaries): a load/store architecture, register+displacement
// addressing, and compare-and-branch control flow. Encodings are stable so
// that ciphertext tampering on instruction words (Section 3 of the paper)
// has well-defined, reproducible semantics.
package isa

import "fmt"

// Word sizes and layout constants.
const (
	// InstBytes is the size of one encoded instruction word.
	InstBytes = 4
	// NumIntRegs is the number of architectural integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architectural floating-point registers.
	NumFPRegs = 32
	// RegZero is the hardwired-zero integer register (reads as 0, writes discarded).
	RegZero = 0
	// RegRA is the conventional link (return address) register. It lies in
	// the I-format-addressable range r0..r15 so that calls, returns, and
	// stack spills (all I-format) can name it.
	RegRA = 15
	// RegSP is the conventional stack pointer register (I-format addressable).
	RegSP = 14
)

// Op is an operation code. The encoded opcode field is 8 bits wide.
type Op uint8

// Operation codes. The numeric values are part of the binary encoding and
// must not be reordered.
const (
	OpNOP Op = iota
	OpHALT

	// Integer ALU, register-register.
	OpADD
	OpSUB
	OpMUL
	OpDIV
	OpREM
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT  // rd = (rs1 < rs2) signed
	OpSLTU // rd = (rs1 < rs2) unsigned

	// Integer ALU, register-immediate (16-bit signed immediate unless noted).
	OpADDI
	OpANDI // immediate is zero-extended
	OpORI  // immediate is zero-extended
	OpXORI // immediate is zero-extended
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI
	OpLUI  // rd = imm << 16 (bits 16..31); use with OpORI/OpSLLI to build constants
	OpLUIH // rd = rd | imm << 32 (bits 32..47); builds 64-bit constants

	// Loads: rd = MEM[rs1 + imm].
	OpLD // 64-bit
	OpLW // 32-bit, sign-extended
	OpLWU
	OpLB // 8-bit, sign-extended
	OpLBU

	// Stores: MEM[rs1 + imm] = rs2.
	OpSD
	OpSW
	OpSB

	// Control transfer.
	OpBEQ  // branch if rs1 == rs2, pc-relative imm (in instruction words)
	OpBNE  //
	OpBLT  // signed
	OpBGE  // signed
	OpBLTU //
	OpBGEU //
	OpJAL  // rd = pc+4; pc += imm*4 (26-bit-ish range via imm16 words)
	OpJALR // rd = pc+4; pc = rs1 + imm

	// Floating point (operates on the FP register file, float64 values).
	OpFLD  // fd = MEM[rs1 + imm]
	OpFSD  // MEM[rs1 + imm] = fs2
	OpFADD // fd = fs1 + fs2
	OpFSUB
	OpFMUL
	OpFDIV
	OpFNEG   // fd = -fs1
	OpFCVTIF // fd = float64(rs1)  (int source register)
	OpFCVTFI // rd = int64(fs1)    (int destination register)
	OpFBLT   // branch if fs1 < fs2
	OpFBGE   // branch if fs1 >= fs2

	// OpOUT writes rs2 to I/O port imm. The paper's "disclosing kernel to an
	// I/O channel" exploit (Section 3.2.3) targets this instruction; ports are
	// architectural state, so OUT is only performed at commit.
	OpOUT

	// OpPREF is a software prefetch of MEM[rs1+imm]; it issues a bus fetch but
	// writes no register. Used by workloads with software prefetching.
	OpPREF

	// Pointer authentication (FEAT_PAuth-flavoured). Pointers are 32-bit
	// addresses carried in 64-bit registers; sign computes a keyed MAC over
	// (low 32 address bits, 64-bit modifier in rs2) and places the truncated
	// tag in the upper 32 bits. auth recomputes and checks the tag: on
	// success the clean address is produced; on failure the outcome is a
	// policy decision (strip-through, poison for fault-at-use, or an
	// architectural fault at the auth point — see cryptoengine/pacmac).
	// strip removes the tag without any check. A/B name two independent keys.
	OpSIGNA // rd = sign(rs1, modifier rs2) under key A
	OpSIGNB // rd = sign(rs1, modifier rs2) under key B
	OpAUTHA // rd = auth(rs1, modifier rs2) under key A
	OpAUTHB // rd = auth(rs1, modifier rs2) under key B
	OpSTRIP // rd = rs1 with the PAC field cleared

	opMax // sentinel; must remain last
)

// NumOps is the count of defined operations.
const NumOps = int(opMax)

// Class groups operations for issue/functional-unit purposes.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassALU
	ClassMul // long-latency integer (MUL/DIV/REM)
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // JAL/JALR
	ClassFPU
	ClassFPLoad
	ClassFPStore
	ClassOut
	ClassHalt
	ClassPAC // pointer-authentication ops (keyed MAC unit)
)

type opInfo struct {
	name  string
	class Class
	// hasImm reports whether the 16-bit immediate field is meaningful.
	hasImm bool
}

var opTable = [NumOps]opInfo{
	OpNOP:    {"nop", ClassNop, false},
	OpHALT:   {"halt", ClassHalt, false},
	OpADD:    {"add", ClassALU, false},
	OpSUB:    {"sub", ClassALU, false},
	OpMUL:    {"mul", ClassMul, false},
	OpDIV:    {"div", ClassMul, false},
	OpREM:    {"rem", ClassMul, false},
	OpAND:    {"and", ClassALU, false},
	OpOR:     {"or", ClassALU, false},
	OpXOR:    {"xor", ClassALU, false},
	OpSLL:    {"sll", ClassALU, false},
	OpSRL:    {"srl", ClassALU, false},
	OpSRA:    {"sra", ClassALU, false},
	OpSLT:    {"slt", ClassALU, false},
	OpSLTU:   {"sltu", ClassALU, false},
	OpADDI:   {"addi", ClassALU, true},
	OpANDI:   {"andi", ClassALU, true},
	OpORI:    {"ori", ClassALU, true},
	OpXORI:   {"xori", ClassALU, true},
	OpSLLI:   {"slli", ClassALU, true},
	OpSRLI:   {"srli", ClassALU, true},
	OpSRAI:   {"srai", ClassALU, true},
	OpSLTI:   {"slti", ClassALU, true},
	OpLUI:    {"lui", ClassALU, true},
	OpLUIH:   {"luih", ClassALU, true},
	OpLD:     {"ld", ClassLoad, true},
	OpLW:     {"lw", ClassLoad, true},
	OpLWU:    {"lwu", ClassLoad, true},
	OpLB:     {"lb", ClassLoad, true},
	OpLBU:    {"lbu", ClassLoad, true},
	OpSD:     {"sd", ClassStore, true},
	OpSW:     {"sw", ClassStore, true},
	OpSB:     {"sb", ClassStore, true},
	OpBEQ:    {"beq", ClassBranch, true},
	OpBNE:    {"bne", ClassBranch, true},
	OpBLT:    {"blt", ClassBranch, true},
	OpBGE:    {"bge", ClassBranch, true},
	OpBLTU:   {"bltu", ClassBranch, true},
	OpBGEU:   {"bgeu", ClassBranch, true},
	OpJAL:    {"jal", ClassJump, true},
	OpJALR:   {"jalr", ClassJump, true},
	OpFLD:    {"fld", ClassFPLoad, true},
	OpFSD:    {"fsd", ClassFPStore, true},
	OpFADD:   {"fadd", ClassFPU, false},
	OpFSUB:   {"fsub", ClassFPU, false},
	OpFMUL:   {"fmul", ClassFPU, false},
	OpFDIV:   {"fdiv", ClassFPU, false},
	OpFNEG:   {"fneg", ClassFPU, false},
	OpFCVTIF: {"fcvtif", ClassFPU, false},
	OpFCVTFI: {"fcvtfi", ClassFPU, false},
	OpFBLT:   {"fblt", ClassBranch, true},
	OpFBGE:   {"fbge", ClassBranch, true},
	OpOUT:    {"out", ClassOut, true},
	OpPREF:   {"pref", ClassLoad, true},
	OpSIGNA:  {"signa", ClassPAC, false},
	OpSIGNB:  {"signb", ClassPAC, false},
	OpAUTHA:  {"autha", ClassPAC, false},
	OpAUTHB:  {"authb", ClassPAC, false},
	OpSTRIP:  {"strip", ClassPAC, false},
}

// Valid reports whether op is a defined operation.
func (op Op) Valid() bool { return int(op) < NumOps && opTable[op].name != "" }

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Class returns the functional class of op.
func (op Op) Class() Class {
	if !op.Valid() {
		return ClassNop
	}
	return opTable[op].class
}

// HasImm reports whether op uses the immediate field.
func (op Op) HasImm() bool { return op.Valid() && opTable[op].hasImm }

// OpByName returns the op with the given assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// OpsOfClass returns the defined ops of the given class in opcode order.
// The slice is freshly allocated; callers may filter or reorder it.
// Program generators draw mnemonic pools from this so new ops are exercised
// the moment they are defined.
func OpsOfClass(c Class) []Op {
	var out []Op
	for op := Op(0); int(op) < NumOps; op++ {
		if op.Valid() && opTable[op].class == c {
			out = append(out, op)
		}
	}
	return out
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); int(op) < NumOps; op++ {
		if opTable[op].name != "" {
			m[opTable[op].name] = op
		}
	}
	return m
}()

// Inst is a decoded instruction.
//
// Register fields are interpreted per class: for FP arithmetic Rd/Rs1/Rs2
// index the FP register file; FLD writes FP Rd from an integer base Rs1;
// FSD stores FP Rs2 with integer base Rs1; FCVTIF reads integer Rs1 and
// writes FP Rd; FCVTFI reads FP Rs1 and writes integer Rd.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32 // sign- or zero-extended 16-bit immediate per Op
}

// Encoding layout (little-endian 32-bit word):
//
//	bits  0..7   opcode
//	bits  8..12  rd
//	bits 13..17  rs1
//	bits 18..22  rs2 (rs2-form) — always encoded; ignored by imm-only ops
//	bits 16..31  imm16 for immediate-form ops... —
//
// rs1 (5 bits) and imm16 cannot both start at bit 13 without overlap, so the
// immediate forms use a compact layout:
//
//	bits  0..7   opcode
//	bits  8..12  rd
//	bits 13..17  rs1/rs2 source field (rs1 for loads/ALU-imm; rs2 for stores is
//	             carried in rd's slot — see Encode)
//	bits 18..19  unused
//	... immediate forms instead place imm16 in bits 16..31 and restrict the
//	register fields to bits 8..15.
//
// To keep decoding trivial and lossless we use two fixed formats:
//
//	R-format (no imm):  [op:8][rd:5][rs1:5][rs2:5][pad:9]
//	I-format (imm):     [op:8][rd:4+...]
//
// A 32-bit word cannot hold 8+5+5+16; immediate-form instructions therefore
// encode registers in 4-bit fields ([op:8][rd:4][rs1:4][imm:16]) and may only
// name registers r0..r15 / f0..f15. The assembler enforces this; registers
// r16..r31 are reserved for R-format-only temporaries. Stores and
// register+register branches carry their source register rs2 in the rd field.
const (
	immRegLimit = 16
)

// ErrEncode describes an instruction that cannot be encoded.
type ErrEncode struct {
	Inst   Inst
	Reason string
}

func (e *ErrEncode) Error() string {
	return fmt.Sprintf("cannot encode %v: %s", e.Inst, e.Reason)
}

// usesRs2InRd reports whether the I-format op carries rs2 in the rd field
// (stores and compare-and-branch ops have no destination register).
func usesRs2InRd(op Op) bool {
	switch op.Class() {
	case ClassStore, ClassFPStore, ClassBranch, ClassOut:
		return true
	}
	return false
}

// Encode packs inst into a 32-bit instruction word.
func Encode(inst Inst) (uint32, error) {
	if !inst.Op.Valid() {
		return 0, &ErrEncode{inst, "invalid opcode"}
	}
	if inst.Rd >= NumIntRegs || inst.Rs1 >= NumIntRegs || inst.Rs2 >= NumIntRegs {
		return 0, &ErrEncode{inst, "register out of range"}
	}
	if !inst.Op.HasImm() {
		// R-format.
		w := uint32(inst.Op) |
			uint32(inst.Rd)<<8 |
			uint32(inst.Rs1)<<13 |
			uint32(inst.Rs2)<<18
		return w, nil
	}
	// I-format.
	if inst.Imm < -(1<<15) || inst.Imm >= 1<<16 {
		return 0, &ErrEncode{inst, "immediate out of 16-bit range"}
	}
	if inst.Imm >= 1<<15 {
		// Allow unsigned 16-bit immediates for the zero-extending logical ops.
		switch inst.Op {
		case OpANDI, OpORI, OpXORI, OpLUI, OpLUIH, OpOUT:
		default:
			return 0, &ErrEncode{inst, "immediate out of signed 16-bit range"}
		}
	}
	rdField := inst.Rd
	if usesRs2InRd(inst.Op) {
		rdField = inst.Rs2
	}
	if rdField >= immRegLimit || inst.Rs1 >= immRegLimit {
		return 0, &ErrEncode{inst, "I-format register must be r0..r15/f0..f15"}
	}
	w := uint32(inst.Op) |
		uint32(rdField)<<8 |
		uint32(inst.Rs1)<<12 |
		uint32(uint16(inst.Imm))<<16
	return w, nil
}

// Decode unpacks a 32-bit instruction word. Decoding never fails: invalid
// opcodes decode to an Inst with an invalid Op, which the pipeline raises as
// an illegal-instruction fault at execute. This mirrors real hardware and is
// essential for the tampering experiments, where ciphertext bit-flips produce
// arbitrary instruction words.
func Decode(w uint32) Inst {
	op := Op(w & 0xff)
	if !op.Valid() {
		return Inst{Op: op}
	}
	if !op.HasImm() {
		return Inst{
			Op:  op,
			Rd:  uint8(w >> 8 & 0x1f),
			Rs1: uint8(w >> 13 & 0x1f),
			Rs2: uint8(w >> 18 & 0x1f),
		}
	}
	rdField := uint8(w >> 8 & 0xf)
	rs1 := uint8(w >> 12 & 0xf)
	imm := int32(int16(uint16(w >> 16)))
	switch op {
	case OpANDI, OpORI, OpXORI, OpLUI, OpLUIH, OpOUT:
		imm = int32(uint16(w >> 16)) // zero-extended
	}
	inst := Inst{Op: op, Rs1: rs1, Imm: imm}
	if usesRs2InRd(op) {
		inst.Rs2 = rdField
	} else {
		inst.Rd = rdField
	}
	return inst
}

// String renders inst in assembler syntax.
func (i Inst) String() string {
	fp := func(r uint8) string { return fmt.Sprintf("f%d", r) }
	ir := func(r uint8) string { return fmt.Sprintf("r%d", r) }
	switch i.Op.Class() {
	case ClassNop, ClassHalt:
		return i.Op.String()
	case ClassALU:
		if i.Op.HasImm() {
			if i.Op == OpLUI || i.Op == OpLUIH {
				return fmt.Sprintf("%s %s, %d", i.Op, ir(i.Rd), i.Imm)
			}
			return fmt.Sprintf("%s %s, %s, %d", i.Op, ir(i.Rd), ir(i.Rs1), i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, ir(i.Rd), ir(i.Rs1), ir(i.Rs2))
	case ClassMul:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, ir(i.Rd), ir(i.Rs1), ir(i.Rs2))
	case ClassLoad:
		if i.Op == OpPREF {
			return fmt.Sprintf("%s %d(%s)", i.Op, i.Imm, ir(i.Rs1))
		}
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, ir(i.Rd), i.Imm, ir(i.Rs1))
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, ir(i.Rs2), i.Imm, ir(i.Rs1))
	case ClassFPLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, fp(i.Rd), i.Imm, ir(i.Rs1))
	case ClassFPStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, fp(i.Rs2), i.Imm, ir(i.Rs1))
	case ClassBranch:
		if i.Op == OpFBLT || i.Op == OpFBGE {
			return fmt.Sprintf("%s %s, %s, %d", i.Op, fp(i.Rs1), fp(i.Rs2), i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %d", i.Op, ir(i.Rs1), ir(i.Rs2), i.Imm)
	case ClassJump:
		if i.Op == OpJAL {
			return fmt.Sprintf("%s %s, %d", i.Op, ir(i.Rd), i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %d", i.Op, ir(i.Rd), ir(i.Rs1), i.Imm)
	case ClassFPU:
		switch i.Op {
		case OpFNEG:
			return fmt.Sprintf("%s %s, %s", i.Op, fp(i.Rd), fp(i.Rs1))
		case OpFCVTIF:
			return fmt.Sprintf("%s %s, %s", i.Op, fp(i.Rd), ir(i.Rs1))
		case OpFCVTFI:
			return fmt.Sprintf("%s %s, %s", i.Op, ir(i.Rd), fp(i.Rs1))
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, fp(i.Rd), fp(i.Rs1), fp(i.Rs2))
	case ClassOut:
		return fmt.Sprintf("%s %s, %d", i.Op, ir(i.Rs2), i.Imm)
	case ClassPAC:
		if i.Op == OpSTRIP {
			return fmt.Sprintf("%s %s, %s", i.Op, ir(i.Rd), ir(i.Rs1))
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, ir(i.Rd), ir(i.Rs1), ir(i.Rs2))
	}
	return fmt.Sprintf("%s ?", i.Op)
}

// IsBranchOrJump reports whether the instruction may redirect control flow.
func (i Inst) IsBranchOrJump() bool {
	c := i.Op.Class()
	return c == ClassBranch || c == ClassJump
}

// IsMem reports whether the instruction accesses data memory.
func (i Inst) IsMem() bool {
	switch i.Op.Class() {
	case ClassLoad, ClassStore, ClassFPLoad, ClassFPStore:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool {
	c := i.Op.Class()
	return c == ClassStore || c == ClassFPStore
}

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool {
	c := i.Op.Class()
	return c == ClassLoad || c == ClassFPLoad
}

// MemBytes returns the access size in bytes for memory instructions, 0 otherwise.
func (i Inst) MemBytes() int {
	switch i.Op {
	case OpLD, OpSD, OpFLD, OpFSD:
		return 8
	case OpLW, OpLWU, OpSW:
		return 4
	case OpLB, OpLBU, OpSB:
		return 1
	case OpPREF:
		return 8
	}
	return 0
}
