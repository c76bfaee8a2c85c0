package pacmac

import "testing"

func TestSignAuthRoundTrip(t *testing.T) {
	s := DefaultSuite()
	for _, mode := range []Mode{ModeOff, ModePoison, ModeFaultAuth} {
		for _, keyB := range []bool{false, true} {
			ptr, mod := uint64(0x1_0040), uint64(0xDEAD_BEEF)
			signed := s.Sign(ptr, mod, keyB)
			if signed&AddrMask != ptr {
				t.Fatalf("sign clobbered address bits: %#x", signed)
			}
			if signed>>TagShift == 0 {
				t.Fatalf("sign produced a zero tag for %#x (vanishingly unlikely; layout bug)", ptr)
			}
			got, ok, matched := s.Auth(signed, mod, keyB, mode)
			if !ok || !matched || got != ptr {
				t.Errorf("mode %v keyB=%v: auth(sign(p)) = %#x ok=%v matched=%v, want %#x", mode, keyB, got, ok, matched, ptr)
			}
		}
	}
}

func TestAuthFailureByMode(t *testing.T) {
	s := DefaultSuite()
	forged := s.Sign(0x1_0040, 7, false) ^ 0x1000 // flip an address bit under the tag

	// Every mode compares the tag and reports the mismatch, off included:
	// it is how a run tells whether its mode mattered.
	got, ok, matched := s.Auth(forged, 7, false, ModeOff)
	if !ok || matched || got != forged&AddrMask {
		t.Errorf("off: auth = %#x ok=%v matched=%v, want strip-through, unmatched", got, ok, matched)
	}

	got, ok, matched = s.Auth(forged, 7, false, ModePoison)
	if !ok || matched || !Poisoned(got) {
		t.Errorf("poison: auth = %#x ok=%v matched=%v, want poisoned, unmatched", got, ok, matched)
	}
	if got&AddrMask != forged&AddrMask {
		t.Errorf("poison should preserve address bits: %#x", got)
	}

	got, ok, matched = s.Auth(forged, 7, false, ModeFaultAuth)
	if ok || matched || got != forged&AddrMask {
		t.Errorf("fault-auth: auth = %#x ok=%v matched=%v, want stripped + !ok, unmatched", got, ok, matched)
	}
}

func TestDiscrimination(t *testing.T) {
	s := DefaultSuite()
	signed := s.Sign(0x1_0040, 7, false)
	if _, ok, _ := s.Auth(signed, 8, false, ModeFaultAuth); ok {
		t.Error("wrong modifier authenticated")
	}
	if _, ok, _ := s.Auth(signed, 7, true, ModeFaultAuth); ok {
		t.Error("wrong key authenticated")
	}
	other := NewSuite([]byte("k1"), []byte("k2"))
	if _, ok, _ := other.Auth(signed, 7, false, ModeFaultAuth); ok {
		t.Error("foreign suite authenticated")
	}
	if s.Tag(0x1_0040, 7, false) == s.Tag(0x1_0044, 7, false) {
		t.Error("adjacent addresses share a tag")
	}
}

func TestStripAndPoisonLayout(t *testing.T) {
	s := DefaultSuite()
	signed := s.Sign(0x2_0000, 1, true)
	if Strip(signed) != 0x2_0000 {
		t.Errorf("strip(%#x) = %#x", signed, Strip(signed))
	}
	if Strip(Strip(signed)) != Strip(signed) {
		t.Error("strip not idempotent")
	}
	p := Poison(signed)
	if !Poisoned(p) || Poisoned(signed) || Poisoned(Strip(signed)) {
		t.Error("Poisoned misclassifies")
	}
}

// The pipeline and the interpreter sign on every PAC sign or auth
// instruction, so signing must not allocate.
func TestSignDoesNotAllocate(t *testing.T) {
	s := DefaultSuite()
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += s.Sign(0x1_0040, 7, true) }); n != 0 {
		t.Errorf("Sign made %.0f allocations, want 0", n)
	}
}
