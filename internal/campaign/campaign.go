// Package campaign runs campaigns on one cell engine (Sweep, on the worker
// pool Do), which owns the ledger records, the progress meter, resume and
// finding order, and makes them resumable: a content-addressed result cache
// plus ledger-as-checkpoint helpers.
//
// The cell list of every campaign — a bench sweep, a differential fuzz run, a
// two-run contract sweep — is embarrassingly parallel and deterministic: the
// result of one cell is a pure function of (program, policy, check options,
// tamper mode and site, check-schema version). That function is exactly a
// cache key, so no cell ever needs to be simulated twice, across runs,
// campaigns, or machines sharing a cache directory. The checkers
// (diffcheck.Check, contract.CheckProgram) consult a Store through their
// Options; a hit returns the recorded result bit-identical to a fresh
// simulation — the same determinism contract the .repro/.leak replay corpus
// pins.
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
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"authpoint/internal/telemetry"
)

// KeySchema versions the key derivation itself (field set and encoding).
// Bump it if Key gains fields or the ID encoding changes: old entries must
// miss, never alias.
const KeySchema = "authcampaign/key/v1"

// EntrySchema versions the on-disk entry envelope.
const EntrySchema = "authcampaign/entry/v1"

// Key identifies one unit of deterministic campaign work. Two cells with
// equal keys have bit-identical results, so the key is the cache address.
type Key struct {
	// Check is the checker's schema version (e.g. diffcheck.CheckSchema).
	// Any change to check semantics — verdict set, digest encoding, default
	// options — bumps it, invalidating every cached result at once.
	Check string `json:"check"`
	// Kind labels the campaign flavor ("fuzz", "verify"), mirroring the
	// ledger's kind field.
	Kind string `json:"kind"`
	// ProgDigest is the hex SHA-256 of the exact program source text. Keying
	// on content, not the generator seed, means identical programs share an
	// entry and generator evolution invalidates cleanly.
	ProgDigest string `json:"prog"`
	// Policy is the canonical (normalized) control-point name.
	Policy string `json:"policy"`
	// Options is the canonical rendering of every result-relevant check
	// option (bounds, watchdog, secret images, regions). Free-form but
	// canonical: equal option sets must render equal strings.
	Options string `json:"options"`
	// Tamper and Site select the tamper mode, after defaulting (an entry-site
	// tamper records "entry", never "").
	Tamper bool   `json:"tamper,omitempty"`
	Site   string `json:"site,omitempty"`
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
	h := sha256.New()
	var n [8]byte
	wr := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	wr(KeySchema)
	wr(k.Check)
	wr(k.Kind)
	wr(k.ProgDigest)
	wr(k.Policy)
	wr(k.Options)
	if k.Tamper {
		wr("tamper")
		wr(k.Site)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entry is the on-disk envelope: the full key (so collisions and stale
// derivations are detectable, not silently aliased) plus the result payload.
type entry struct {
	Schema string          `json:"schema"`
	Key    Key             `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Store is an on-disk content-addressed result cache. Entries live at
// dir/<id[:2]>/<id>.json and are written atomically (temp file + rename), so
// concurrent workers — or concurrent campaigns sharing the directory — never
// observe torn entries. Unreadable, corrupt, or key-mismatched entries read
// as misses, never as wrong results.
type Store struct {
	dir string

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	mu  sync.Mutex
	err error // first write error, surfaced by Err
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id[:2], id+".json")
}

// Get looks k up and, on a hit, decodes the stored result into out (a
// pointer). A missing, corrupt, or key-mismatched entry is a miss.
func (s *Store) Get(k Key, out any) (bool, error) {
	id := k.ID()
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		s.misses.Add(1)
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("campaign: %w", err)
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Schema != EntrySchema || e.Key != k {
		// Torn writes cannot happen (rename is atomic) but truncated disks,
		// schema bumps, and hash collisions all land here: treat as a miss so
		// the cell re-simulates and overwrites the entry.
		s.misses.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(e.Result, out); err != nil {
		s.misses.Add(1)
		return false, nil
	}
	s.hits.Add(1)
	return true, nil
}

// Put records v as the result of k. Writes are atomic and last-writer-wins;
// since results are deterministic functions of the key, concurrent writers
// write identical payloads. The first write error is sticky (see Err) so
// campaigns on a full or read-only disk fail loudly at the end, not silently
// cell by cell.
func (s *Store) Put(k Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return s.fail(fmt.Errorf("campaign: encode: %w", err))
	}
	e := entry{Schema: EntrySchema, Key: k, Result: payload}
	data, err := json.Marshal(&e)
	if err != nil {
		return s.fail(fmt.Errorf("campaign: encode: %w", err))
	}
	id := k.ID()
	path := s.path(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return s.fail(fmt.Errorf("campaign: %w", err))
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+id+".tmp*")
	if err != nil {
		return s.fail(fmt.Errorf("campaign: %w", err))
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return s.fail(fmt.Errorf("campaign: %w", werr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return s.fail(fmt.Errorf("campaign: %w", err))
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) fail(err error) error {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	return err
}

// Err returns the first write error seen over the store's lifetime.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Hits, Misses, and Puts report the store's lifetime lookup and write
// counts — the observables campaign summaries and tests pin.
func (s *Store) Hits() int64   { return s.hits.Load() }
func (s *Store) Misses() int64 { return s.misses.Load() }
func (s *Store) Puts() int64   { return s.puts.Load() }

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
