// Package campaign runs campaigns on one cell engine (Sweep, on the worker
// pool Do), which owns the ledger records, the progress meter, resume and
// finding order, and makes them resumable: a content-addressed result store
// plus ledger-as-checkpoint helpers.
//
// The cell list of every campaign — a bench sweep, a differential fuzz run, a
// two-run contract sweep — is embarrassingly parallel and deterministic: the
// result of one cell is a pure function of (program, policy, check options,
// tamper mode and site, check-schema version, machine model). That function
// is exactly a cache key, so no cell ever needs to be simulated twice, across
// runs, campaigns, or machines sharing a cache directory. The checkers
// (diffcheck.Check, contract.CheckProgram) consult a Store through their
// Options; a hit returns the recorded result bit-identical to a fresh
// simulation — the same determinism contract the .repro/.leak replay corpus
// pins. The Store keeps its results in append-only segment files, one per
// writer, indexed in memory when it opens (see Store).
//
// Checkpoint/resume rides on the telemetry ledger: a campaign's JSONL ledger
// records one line per cell, including explicit "skipped" records for cells a
// budget expiry never ran, so a killed campaign's ledger proves exactly which
// cells completed. Completed turns that ledger into a skip set Sweep
// subtracts from the next run's cell list.
package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"authpoint/internal/telemetry"
)

// KeySchema versions the key derivation itself (field set and encoding).
// Bump it if Key gains fields or the ID encoding changes: old entries must
// miss, never alias.
const KeySchema = "authcampaign/key/v2"

// Key identifies one unit of deterministic campaign work. Two cells with
// equal keys have bit-identical results, so the key is the cache address.
type Key struct {
	// Check is the checker's schema version (e.g. diffcheck.CheckSchema).
	// Any change to check semantics — verdict set, digest encoding, default
	// options — bumps it, invalidating every cached result at once.
	Check string
	// Kind labels the campaign flavor ("fuzz", "verify"), mirroring the
	// ledger's kind field.
	Kind string
	// ProgDigest is the hex SHA-256 of the exact program source text. Keying
	// on content, not the generator seed, means identical programs share an
	// entry and generator evolution invalidates cleanly.
	ProgDigest string
	// Policy is the canonical (normalized) control-point name.
	Policy string
	// Options is the canonical rendering of every result-relevant check
	// option (bounds, watchdog, secret images, regions). Free-form but
	// canonical: equal option sets must render equal strings.
	Options string
	// Model fingerprints the machine model the result was computed on (see
	// diffcheck.ModelFingerprint): a change to the default configuration, or
	// to timing or behaviour made in code, moves it, so results of an older
	// model stop being addressed.
	Model string
	// Tamper and Site select the tamper mode, after defaulting (an entry-site
	// tamper records "entry", never "").
	Tamper bool
	Site   string
}

// Digest returns the hex SHA-256 of data — the ProgDigest convention.
func Digest(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// ID returns the content address of the key: the hex SHA-256 of its
// length-prefixed field encoding under KeySchema. Length prefixes keep
// distinct field tuples from colliding by concatenation.
func (k Key) ID() string {
	id := k.sum()
	return hex.EncodeToString(id[:])
}

// sum is the binary form of ID, the address the store indexes.
func (k Key) sum() [32]byte {
	b := appendString(make([]byte, 0, 256), KeySchema)
	for _, f := range [...]string{k.Check, k.Kind, k.ProgDigest, k.Policy, k.Options, k.Model} {
		b = appendString(b, f)
	}
	if k.Tamper {
		b = appendString(b, "tamper")
		b = appendString(b, k.Site)
	}
	return sha256.Sum256(b)
}

// appendString appends s to b behind its length as a little-endian uint64.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// CellID is the campaign-level identity of one cell as a ledger records it:
// the fields of telemetry.Record that name the work, not its outcome. It is
// the join key between a checkpoint ledger and a fresh cell list.
type CellID struct {
	Kind   string
	Policy string
	Seed   int64
	Tamper bool
	Site   string
}

// Completed returns the cells lf proves finished, mapped to their verdicts.
// A record counts as completed when it carries a terminal verdict — anything
// but empty or "skipped". Budget-skipped records (and the holes pre-skip
// ledgers left) stay incomplete, which is exactly what lets a resumed
// campaign tell skipped from done.
func Completed(lf *telemetry.LedgerFile) map[CellID]string {
	done := make(map[CellID]string, len(lf.Records))
	for _, r := range lf.Records {
		if r.Verdict == "" || r.Verdict == telemetry.VerdictSkipped {
			continue
		}
		done[cellID(r)] = r.Verdict
	}
	return done
}

// LoadCompleted reads the checkpoint ledger at path and returns its
// completed-cell set (see Completed). The ledger is validated first: a
// corrupt checkpoint must fail the resume, not silently re-run everything.
func LoadCompleted(path string) (map[CellID]string, error) {
	lf, err := telemetry.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := lf.Validate(); err != nil {
		return nil, err
	}
	return Completed(lf), nil
}
