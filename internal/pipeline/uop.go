// Pre-decoded micro-ops. isa.Decode is a pure function of the 32-bit
// instruction word, and so is the operand wiring that dispatch derives from
// the decoded instruction (which architectural registers are read/written,
// whether the op is a load/store/control transfer). DecodeUop hoists all of
// it into a Uop computed once per static instruction at program load; fetch
// then copies the cached Uop instead of re-deriving it per dynamic instance.
//
// Correctness does not rest on the text staying unmodified: Lookup validates
// the cached encoding against the word the memory system actually returned,
// so tampered or overwritten text (ciphertext bit-flips decrypt to garbage
// words; crypto faults at the fetch gate) simply misses the cache and falls
// back to a fresh DecodeUop of the fetched word — bit-identical behaviour,
// only slower on the lines that changed.

package pipeline

import (
	"encoding/binary"

	"authpoint/internal/isa"
)

// Uop is one pre-decoded micro-op: the decoded instruction plus every
// dispatch-time derivation that depends only on the encoding.
type Uop struct {
	Inst    isa.Inst
	Class   isa.Class
	Illegal bool

	// Operand wiring (the static half of rename): source architectural
	// registers in operand order, and the destination if any. Mirrors
	// exactly what dispatch used to derive per instance.
	NSrc    uint8
	SrcReg  [2]uint8
	SrcFP   [2]bool
	HasDest bool
	DestFP  bool
	DestReg uint8

	IsLoad  bool
	IsStore bool
	IsCtl   bool
	IsMem   bool
}

func (u *Uop) addSrc(reg uint8, fp bool) {
	u.SrcReg[u.NSrc] = reg
	u.SrcFP[u.NSrc] = fp
	u.NSrc++
}

func (u *Uop) setDest(reg uint8, fp bool) {
	u.HasDest = true
	u.DestReg = reg
	u.DestFP = fp
}

// DecodeUop decodes one instruction word and resolves its operand wiring.
// Like isa.Decode it never fails: invalid opcodes yield Illegal, which
// dispatch turns into a precise illegal-instruction fault.
func DecodeUop(w uint32) Uop {
	inst := isa.Decode(w)
	op := inst.Op
	u := Uop{Inst: inst, Class: op.Class(), Illegal: !op.Valid(), IsMem: inst.IsMem()}
	switch u.Class {
	case isa.ClassALU:
		if op.HasImm() {
			u.addSrc(inst.Rs1, false)
		} else {
			u.addSrc(inst.Rs1, false)
			u.addSrc(inst.Rs2, false)
		}
		u.setDest(inst.Rd, false)
	case isa.ClassMul:
		u.addSrc(inst.Rs1, false)
		u.addSrc(inst.Rs2, false)
		u.setDest(inst.Rd, false)
	case isa.ClassLoad:
		u.IsLoad = true
		u.addSrc(inst.Rs1, false)
		if op != isa.OpPREF {
			u.setDest(inst.Rd, false)
		}
	case isa.ClassFPLoad:
		u.IsLoad = true
		u.addSrc(inst.Rs1, false)
		u.setDest(inst.Rd, true)
	case isa.ClassStore:
		u.IsStore = true
		u.addSrc(inst.Rs1, false)
		u.addSrc(inst.Rs2, false)
	case isa.ClassFPStore:
		u.IsStore = true
		u.addSrc(inst.Rs1, false)
		u.addSrc(inst.Rs2, true)
	case isa.ClassBranch:
		u.IsCtl = true
		fp := op == isa.OpFBLT || op == isa.OpFBGE
		u.addSrc(inst.Rs1, fp)
		u.addSrc(inst.Rs2, fp)
	case isa.ClassJump:
		u.IsCtl = true
		if op == isa.OpJALR {
			u.addSrc(inst.Rs1, false)
		}
		u.setDest(inst.Rd, false)
	case isa.ClassFPU:
		switch op {
		case isa.OpFCVTIF:
			u.addSrc(inst.Rs1, false)
			u.setDest(inst.Rd, true)
		case isa.OpFCVTFI:
			u.addSrc(inst.Rs1, true)
			u.setDest(inst.Rd, false)
		case isa.OpFNEG:
			u.addSrc(inst.Rs1, true)
			u.setDest(inst.Rd, true)
		default:
			u.addSrc(inst.Rs1, true)
			u.addSrc(inst.Rs2, true)
			u.setDest(inst.Rd, true)
		}
	case isa.ClassOut:
		u.addSrc(inst.Rs2, false)
	case isa.ClassPAC:
		u.addSrc(inst.Rs1, false)
		if op != isa.OpSTRIP {
			u.addSrc(inst.Rs2, false) // modifier
		}
		u.setDest(inst.Rd, false)
	}
	return u
}

// UopCache holds the pre-decoded micro-ops of one program's static text,
// indexed by PC. Only Reset changes it; a core's fetch copies the Uop it
// looks up.
type UopCache struct {
	base  uint64
	words []uint32
	uops  []Uop
}

// NewUopCache decodes every word of a text image (little-endian, as the
// memory system reads it) rooted at base: Reset on a zero UopCache.
func NewUopCache(base uint64, text []byte) *UopCache {
	uc := new(UopCache)
	uc.Reset(base, text)
	return uc
}

// Reset re-targets the cache at another text image rooted at base. Words
// the cache already holds at the same PC keep their decoded µops, so a
// machine rebuilt for the same program decodes nothing.
func (uc *UopCache) Reset(base uint64, text []byte) {
	n := len(text) / 4
	keep := 0
	if base == uc.base {
		keep = min(n, len(uc.words))
	}
	if cap(uc.words) < n {
		uc.words, uc.uops, keep = make([]uint32, n), make([]Uop, n), 0
	}
	uc.base, uc.words, uc.uops = base, uc.words[:n], uc.uops[:n]
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(text[i*4:])
		if i < keep && uc.words[i] == w {
			continue
		}
		uc.words[i] = w
		uc.uops[i] = DecodeUop(w)
	}
}

// Lookup returns the cached micro-op for pc iff word matches the encoding
// the cache was built from. A mismatch (tampered line, overwritten text,
// wild PC outside the static image) reports false and the caller decodes
// the fetched word directly.
func (uc *UopCache) Lookup(pc uint64, word uint32) (*Uop, bool) {
	if uc == nil {
		return nil, false
	}
	i := (pc - uc.base) >> 2
	if pc < uc.base || i >= uint64(len(uc.uops)) || uc.words[i] != word || pc&3 != 0 {
		return nil, false
	}
	return &uc.uops[i], true
}
