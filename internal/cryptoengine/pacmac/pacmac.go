// Package pacmac is the keyed MAC unit behind the pointer-authentication
// instructions (sign/auth/strip): an HMAC-SHA256 pointer-authentication code
// truncated into the upper 32 bits of the 64-bit pointer word, discriminated
// by a 64-bit modifier and one of two independent keys (FEAT_PAuth's A/B key
// split, scaled to this machine's 32-bit address space).
//
// Signing and stripping are policy-independent: a signed pointer always
// carries its tag, and strip always removes it. Only the *failure* behaviour
// of auth is a policy decision (Mode):
//
//   - ModeOff:       auth behaves as strip — the forged pointer flows on and
//     the dereference proceeds. This is the unprotected baseline the
//     substitution attack exploits.
//   - ModePoison:    the failed pointer is poisoned to a non-canonical,
//     never-mapped address, so the fault surfaces at translation of the next
//     use. The poisoned value carries no address bits an adversary can steer,
//     and the machine's address check precedes any bus traffic — even a
//     speculative dereference of a poisoned pointer stays off the bus.
//   - ModeFaultAuth: FPAC-style — the auth instruction itself raises an
//     architectural fault. Precise at the auth point, but the checked (and
//     stripped) pointer is still forwarded to dependents in an out-of-order
//     core, so a dependent load can touch the bus speculatively before the
//     fault commits: the auth-then-use race.
package pacmac

import (
	"encoding/binary"

	"authpoint/internal/cryptoengine/hmac"
)

// Mode selects the auth-failure behaviour. The zero value is ModeOff so an
// unconfigured machine matches the pre-PAC model exactly.
type Mode uint8

const (
	// ModeOff: auth never fails; it strips like an unchecked cast (the tag
	// is still compared, and a mismatch reported).
	ModeOff Mode = iota
	// ModePoison: a failed auth yields a poisoned pointer; the fault
	// surfaces at the next translation (fault-at-use).
	ModePoison
	// ModeFaultAuth: a failed auth faults architecturally at the auth
	// instruction (FPAC).
	ModeFaultAuth
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModePoison:
		return "poison"
	case ModeFaultAuth:
		return "fault-auth"
	}
	return "mode?"
}

// Pointer-word layout: the low 32 bits are the address, the high 32 bits the
// tag. A clean (strippable) pointer has a zero tag field.
const (
	// AddrMask selects the address bits of a pointer word.
	AddrMask uint64 = 0xFFFF_FFFF
	// TagShift positions the truncated MAC in the pointer word.
	TagShift = 32
	// poisonBit marks a poisoned pointer. The machine's address space is
	// below 4 GiB, so any nonzero upper word (tag or poison alike) is
	// non-canonical and address translation rejects the value before any bus
	// access; the poison pattern (exactly the top bit set, tag field
	// otherwise zero) distinguishes a deliberately killed pointer from a
	// merely signed one.
	poisonBit uint64 = 1 << 63
)

// Suite holds the two pointer keys, each as an HMAC state with its key
// absorbed. Keys are fixed per machine instance — the model has no
// key-management ISA; what is under study is where the check sits, not key
// distribution. Build one with NewSuite or DefaultSuite; the zero Suite has
// no keys.
//
// Copies of a Suite share its HMAC states and message buffer, so a Suite is
// not safe for concurrent use: each pipeline, interp.Machine and attack
// builds its own with DefaultSuite.
type Suite struct {
	keyA, keyB *hmac.Keyed
	msg        *[12]byte // Tag's message: a stack array would escape into the MAC
}

// NewSuite builds a suite from explicit key material.
func NewSuite(keyA, keyB []byte) Suite {
	return Suite{keyA: hmac.NewKeyed(keyA), keyB: hmac.NewKeyed(keyB), msg: new([12]byte)}
}

// DefaultSuite returns the well-known per-machine keys, mirroring the fixed
// encryption/integrity keys of the secure memory controller.
func DefaultSuite() Suite {
	return NewSuite([]byte("authpoint-pointer-keyA-256bit!!!"), []byte("authpoint-pointer-keyB-256bit!!!"))
}

func (s Suite) key(b bool) *hmac.Keyed {
	if b {
		return s.keyB
	}
	return s.keyA
}

// Tag computes the truncated pointer-authentication code for (address,
// modifier) under the chosen key. Only the address bits of ptr participate:
// signing an already-signed pointer re-tags the same address.
func (s Suite) Tag(ptr, mod uint64, keyB bool) uint32 {
	binary.LittleEndian.PutUint32(s.msg[0:4], uint32(ptr&AddrMask))
	binary.LittleEndian.PutUint64(s.msg[4:12], mod)
	sum := s.key(keyB).Mac(s.msg[:])
	return binary.LittleEndian.Uint32(sum[:4])
}

// Sign returns ptr with its PAC inserted in the upper 32 bits.
func (s Suite) Sign(ptr, mod uint64, keyB bool) uint64 {
	return ptr&AddrMask | uint64(s.Tag(ptr, mod, keyB))<<TagShift
}

// Auth checks ptr's tag against (address, modifier, key) under every mode,
// and matched reports whether it matched. On a match it returns the clean
// address and ok=true, whatever the mode. On a mismatch the result depends on
// mode: ModeOff strips (ok=true), ModePoison returns the poisoned word
// (ok=true — no architectural event at the auth itself), ModeFaultAuth
// returns the stripped address with ok=false, directing the caller to fault.
// The stripped value is still returned in that case because an OoO core
// broadcasts it to dependents before the fault commits. This mismatch branch
// is the only reader of the mode, so a run in which every auth matched is the
// same run under all three modes, which is what the pipeline and the
// interpreter count mismatches for.
func (s Suite) Auth(ptr, mod uint64, keyB bool, mode Mode) (v uint64, ok, matched bool) {
	addr := ptr & AddrMask
	if uint32(ptr>>TagShift) == s.Tag(ptr, mod, keyB) {
		return addr, true, true
	}
	switch mode {
	case ModeOff:
		return addr, true, false
	case ModePoison:
		return Poison(ptr), true, false
	}
	return addr, false, false
}

// Strip removes the tag without any check.
func Strip(ptr uint64) uint64 { return ptr & AddrMask }

// Poison returns the poisoned form of ptr: address bits preserved for
// debugging, top bit set so no translation can ever map it.
func Poison(ptr uint64) uint64 { return poisonBit | ptr&AddrMask }

// Poisoned reports whether ptr carries the exact poison pattern. A signed
// pointer whose tag happens to equal the pattern is indistinguishable (a
// 2^-32 coincidence); the model accepts that, as real PAC implementations do.
func Poisoned(ptr uint64) bool { return ptr&^AddrMask == poisonBit }
