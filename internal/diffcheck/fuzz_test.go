package diffcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"authpoint/internal/policy"
)

// FuzzDiffOracle cross-validates generated programs against the in-order
// oracle at the decrypt-only baseline. Any divergence — or a generated
// program that fails to assemble or terminate — is a bug. Run with
// `go test -fuzz FuzzDiffOracle ./internal/diffcheck` to explore seeds
// beyond the corpus.
func FuzzDiffOracle(f *testing.F) {
	for s := int64(1); s <= 20; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		res, src := CheckSeed(seed, Options{})
		if res.Verdict != VerdictOK {
			t.Fatalf("seed %d: %s: %s\n%s", seed, res.Verdict, res.Divergence, src)
		}
	})
}

// FuzzDiffLattice lets the fuzzer pick the seed, the lattice point, and
// whether to tamper, and asserts the policy-dependent invariants:
// architectural equivalence when untampered, containment/detection when
// tampered (Check reports any break as a divergence).
func FuzzDiffLattice(f *testing.F) {
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(2), uint8(7), false)
	f.Add(int64(3), uint8(13), true)
	f.Add(int64(4), uint8(30), true)
	f.Fuzz(func(t *testing.T, seed int64, polIdx uint8, tamper bool) {
		pols := policy.FullLattice()
		pol := pols[int(polIdx)%len(pols)]
		res, src := CheckSeed(seed, Options{Policy: pol, Tamper: tamper})
		if res.Verdict == VerdictDivergence || res.Verdict == VerdictError {
			t.Fatalf("seed %d under %v (tamper=%v): %s: %s\n%s",
				seed, pol, tamper, res.Verdict, res.Divergence, src)
		}
		if tamper && pol.IsBaseline() != (res.Verdict == VerdictUndetected) {
			t.Fatalf("seed %d under %v: tamper verdict %s does not match baseline-ness",
				seed, pol, res.Verdict)
		}
	})
}

// FuzzDecodeRepro feeds arbitrary bytes to the .repro decoder, seeded with
// the checked-in corpus. It must not panic or hang. An accepted repro names
// a tamper site only when tampered, and only one of Sites(); and its
// encoding reaches a fixed point: encoding what the encoding decodes to
// gives the same bytes. (Bytes, not structs: an accepted file may spell a
// value the encoder writes differently, such as a field it omits.)
func FuzzDecodeRepro(f *testing.F) {
	paths, err := filepath.Glob("testdata/*.repro")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"` + ReproSchema + `","source":"halt","tamper":true,"tamper_site":"bogus"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRepro(data)
		if err != nil {
			return
		}
		if site := TamperSite(r.TamperSite); site != "" && (!r.Tamper || !slices.Contains(Sites(), site)) {
			t.Fatalf("accepted tamper=%v site %q", r.Tamper, site)
		}
		enc := r.Encode()
		again, err := DecodeRepro(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, enc)
		}
		if enc2 := again.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n%s\nthen\n%s", enc, enc2)
		}
	})
}
