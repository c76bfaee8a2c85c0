package diffcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"authpoint/internal/policy"
)

// ReproSchema identifies the deterministic replay file format.
const ReproSchema = "authfuzz/repro/v1"

// Repro is one recorded differential check: everything needed to replay it
// byte-identically — the exact source (not the seed: the generator may
// evolve), the policy, the tamper flag — plus the expected outcome. Corpus
// entries under testdata/ are Repros with an expected verdict of "ok" (or a
// tamper verdict): they pin past bug classes dead. Divergence repros are
// what authfuzz writes when it finds a new bug.
type Repro struct {
	Schema string `json:"schema"`
	// Note says what this repro pins (bug class, origin).
	Note string `json:"note,omitempty"`
	// Seed is the generator seed the source came from (0 = hand-written).
	Seed   int64  `json:"seed"`
	Policy string `json:"policy"`
	Tamper bool   `json:"tamper,omitempty"`
	// TamperSite is the tamper site (one of Sites(): entry, data, mac, ctr,
	// tree). Empty means entry, so pre-existing corpus files decode (and
	// re-encode) unchanged.
	TamperSite string `json:"tamper_site,omitempty"`

	// Expected outcome: replay must reproduce every field exactly.
	Verdict      string `json:"verdict"`
	Divergence   string `json:"divergence,omitempty"`
	Reason       string `json:"reason"`
	Cycles       uint64 `json:"cycles"`
	Insts        uint64 `json:"insts"`
	OracleDigest string `json:"oracle_digest"`
	SimDigest    string `json:"sim_digest"`

	Source string `json:"source"`
}

// NewRepro records a result (produced with default Options — mutations are
// not replayable) and its source as a repro.
func NewRepro(res Result, src, note string) *Repro {
	// Entry is the default site; recording it as "" keeps entry-site repro
	// files (the whole pre-site corpus) byte-identical across replay.
	site := string(res.Site)
	if !res.Tamper || res.Site == SiteEntry {
		site = ""
	}
	return &Repro{
		Schema:       ReproSchema,
		Note:         note,
		Seed:         res.Seed,
		Policy:       res.Policy.String(),
		Tamper:       res.Tamper,
		TamperSite:   site,
		Verdict:      string(res.Verdict),
		Divergence:   res.Divergence,
		Reason:       res.Reason,
		Cycles:       res.Cycles,
		Insts:        res.Insts,
		OracleDigest: res.OracleDigest,
		SimDigest:    res.SimDigest,
		Source:       src,
	}
}

// Encode renders the repro as canonical JSON (fixed field order, two-space
// indent, trailing newline). Replay compares encodings byte-for-byte.
func (r *Repro) Encode() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Only unmarshalable types reach this; the struct has none.
		panic(err)
	}
	return append(b, '\n')
}

// DecodeRepro parses and schema-checks a repro file. Its tamper site must
// be one of Sites(), or empty for entry, and only a tampered repro names
// one: NewRepro writes no other form, and Check would treat an unknown
// site as entry.
func DecodeRepro(data []byte) (*Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("diffcheck: repro does not decode: %w", err)
	}
	if r.Schema != ReproSchema {
		return nil, fmt.Errorf("diffcheck: repro schema %q, want %q", r.Schema, ReproSchema)
	}
	if r.Source == "" {
		return nil, fmt.Errorf("diffcheck: repro has no source")
	}
	if r.TamperSite != "" {
		if !r.Tamper {
			return nil, fmt.Errorf("diffcheck: untampered repro names tamper site %q", r.TamperSite)
		}
		if !slices.Contains(Sites(), TamperSite(r.TamperSite)) {
			return nil, fmt.Errorf("diffcheck: repro tamper site %q: want one of %v", r.TamperSite, Sites())
		}
	}
	return &r, nil
}

// LoadRepro reads a repro file from disk.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeRepro(data)
}

// WriteFile writes the canonical encoding to path.
func (r *Repro) WriteFile(path string) error {
	return os.WriteFile(path, r.Encode(), 0o644)
}

// Replay re-runs the recorded program under the recorded policy and tamper
// flag and verifies the outcome is byte-identical: re-recording the fresh
// result must reproduce the original file exactly (same verdict, stop
// reason, cycle and instruction counts, and state digests). It returns the
// fresh result and an error describing the first mismatch, if any.
func (r *Repro) Replay() (Result, error) {
	pol, err := policy.Parse(r.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("diffcheck: repro policy: %w", err)
	}
	res := Check(r.Source, Options{Policy: pol, Tamper: r.Tamper, TamperSite: TamperSite(r.TamperSite)})
	res.Seed = r.Seed
	fresh := NewRepro(res, r.Source, r.Note)
	if !bytes.Equal(fresh.Encode(), r.Encode()) {
		return res, fmt.Errorf("diffcheck: replay diverged from recording: %s", reproDiff(r, fresh))
	}
	return res, nil
}

// reproDiff names the first differing field between two repros.
func reproDiff(want, got *Repro) string {
	type f struct{ name, want, got string }
	fields := []f{
		{"verdict", want.Verdict, got.Verdict},
		{"divergence", want.Divergence, got.Divergence},
		{"reason", want.Reason, got.Reason},
		{"cycles", fmt.Sprint(want.Cycles), fmt.Sprint(got.Cycles)},
		{"insts", fmt.Sprint(want.Insts), fmt.Sprint(got.Insts)},
		{"oracle_digest", want.OracleDigest, got.OracleDigest},
		{"sim_digest", want.SimDigest, got.SimDigest},
		{"policy", want.Policy, got.Policy},
		{"tamper_site", want.TamperSite, got.TamperSite},
	}
	for _, x := range fields {
		if x.want != x.got {
			return fmt.Sprintf("%s = %q, recorded %q", x.name, x.got, x.want)
		}
	}
	return "encodings differ (source or metadata)"
}
