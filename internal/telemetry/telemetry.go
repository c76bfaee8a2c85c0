// Package telemetry is the campaign-level observability layer: a streaming
// JSONL run ledger (one record per simulated cell, with host cost, simulated
// cycles, and cache/memo outcome) plus a live progress meter. Where
// internal/obs watches one machine from the inside, telemetry watches a
// campaign — a bench sweep, a fuzz run, a contract sweep — from the outside,
// producing the durable artifact authstat mines for regressions.
//
// Determinism contract: records carry a monotonic sequence number assigned
// before the work fans out, so a ledger produced with -parallel 8 re-sorted
// by sequence is byte-identical to a serial one once the host-dependent
// fields (host_ns, worker) are canonicalized away. Tests pin this.
package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"authpoint/internal/obs"
)

// LedgerSchema versions the ledger format; the first line of every ledger is
// a Header carrying it.
const LedgerSchema = "authtelemetry/ledger/v1"

// VerdictSkipped marks a cell the campaign never ran (budget expiry or
// fail-fast cancellation). Campaigns emit one explicit skipped record per
// unreached cell so a budget-expired ledger is distinguishable from a
// truncated one — and so resume can tell skipped from done.
const VerdictSkipped = "skipped"

// Header is the first JSONL line of a ledger: campaign identity and the host
// environment the numbers were measured on.
type Header struct {
	Schema      string `json:"schema"`
	Campaign    string `json:"campaign"`
	StartUnixNs int64  `json:"start_unix_ns,omitempty"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	Parallelism int    `json:"parallelism,omitempty"`
}

// NewHeader fills the host-environment fields for a campaign.
func NewHeader(campaign string, parallelism int) Header {
	return Header{
		Schema:      LedgerSchema,
		Campaign:    campaign,
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Parallelism: parallelism,
	}
}

// Record is one ledger line: one unit of campaign work (a measured cell, a
// fuzz case, a contract check). Fields not meaningful for a given kind stay
// zero and are omitted.
type Record struct {
	// Seq orders records deterministically regardless of worker
	// interleaving; unique within a ledger.
	Seq uint64 `json:"seq"`
	// Kind labels the campaign flavor: "bench", "fuzz", "verify".
	Kind string `json:"kind"`

	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Tamper   bool   `json:"tamper,omitempty"`
	Site     string `json:"site,omitempty"`
	Verdict  string `json:"verdict,omitempty"`

	SimCycles uint64 `json:"sim_cycles,omitempty"`
	Insts     uint64 `json:"insts,omitempty"`

	// HostNs is the wall-clock cost of the cell on this host; Worker is the
	// worker-goroutine index that ran it. Both are host-dependent and zeroed
	// by Canonical.
	HostNs int64 `json:"host_ns,omitempty"`
	Worker int   `json:"worker,omitempty"`

	// Cached marks a cell served from a memo (baseline reuse) rather than a
	// fresh simulation; its HostNs is not a simulation cost.
	Cached bool `json:"cached,omitempty"`

	Err string `json:"err,omitempty"`

	// Metrics is the cell's observability snapshot, when the check
	// collected one. It rides on the record only until the campaign engine
	// merges it into the cell's policy row, and is never written to the
	// ledger.
	Metrics *obs.Snapshot `json:"-"`
}

// AddMetrics folds one timed run's snapshot into the record's, so a cell
// that runs twice carries the merge of both. The first snapshot is taken
// as is.
func (r *Record) AddMetrics(snap *obs.Snapshot) {
	if r.Metrics == nil {
		r.Metrics = snap
		return
	}
	// Merge only fails on histogram bucket-bound mismatches, which cannot
	// happen here: every run uses the hub's fixed bucket sets.
	_ = r.Metrics.Merge(snap)
}

// Canonical returns the record with host-dependent fields zeroed, so records
// from different parallelism levels (or hosts) compare byte-identical after
// re-sorting by Seq.
func (r Record) Canonical() Record {
	r.HostNs = 0
	r.Worker = 0
	return r
}

// Ledger streams records to a JSONL file. Safe for concurrent use; records
// are written whole-line under a lock, flushed on Close.
type Ledger struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	enc     *json.Encoder
	nextSeq uint64
	err     error
}

// Create opens path, writes the header line, and returns the ledger.
func Create(path string, h Header) (*Ledger, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	l := NewLedger(f)
	l.c = f
	if err := l.writeHeader(h); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// NewLedger wraps an arbitrary writer (no header written; use writeHeader
// via Create for files). Exposed for tests and in-memory use.
func NewLedger(w io.Writer) *Ledger {
	bw := bufio.NewWriter(w)
	return &Ledger{w: bw, enc: json.NewEncoder(bw)}
}

func (l *Ledger) writeHeader(h Header) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h.Schema == "" {
		h.Schema = LedgerSchema
	}
	if err := l.enc.Encode(h); err != nil {
		return fmt.Errorf("telemetry: header: %w", err)
	}
	return nil
}

// WriteHeader writes the header line (for ledgers built with NewLedger).
func (l *Ledger) WriteHeader(h Header) error { return l.writeHeader(h) }

// ReserveSeq atomically reserves n consecutive sequence numbers, returning
// the first. Campaigns reserve a batch before fanning work out so sequence
// assignment is deterministic (input order), not completion order.
func (l *Ledger) ReserveSeq(n int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.nextSeq
	l.nextSeq += uint64(n)
	return s
}

// Emit appends one record. Write errors are sticky and surfaced by Close.
func (l *Ledger) Emit(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Seq >= l.nextSeq {
		l.nextSeq = r.Seq + 1
	}
	if err := l.enc.Encode(r); err != nil && l.err == nil {
		l.err = err
	}
}

// Close flushes and closes the underlying file, returning the first error
// seen anywhere in the ledger's lifetime.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	if l.c != nil {
		if err := l.c.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.c = nil
	}
	return l.err
}

// LedgerFile is a fully parsed ledger.
type LedgerFile struct {
	Header  Header
	Records []Record
}

// Read parses a ledger from a reader: header line then records.
func Read(r io.Reader) (*LedgerFile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		return nil, fmt.Errorf("telemetry: empty ledger")
	}
	var lf LedgerFile
	if err := json.Unmarshal(sc.Bytes(), &lf.Header); err != nil {
		return nil, fmt.Errorf("telemetry: header: %w", err)
	}
	if lf.Header.Schema != LedgerSchema {
		return nil, fmt.Errorf("telemetry: unknown schema %q (want %q)", lf.Header.Schema, LedgerSchema)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		lf.Records = append(lf.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &lf, nil
}

// ReadFile parses the ledger at path.
func ReadFile(path string) (*LedgerFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Validate checks the parsed ledger's invariants: schema already verified by
// Read; here, records exist, kinds are set, and sequence numbers are unique.
func (lf *LedgerFile) Validate() error {
	if len(lf.Records) == 0 {
		return fmt.Errorf("telemetry: ledger has no records")
	}
	seen := make(map[uint64]int, len(lf.Records))
	var maxSeq uint64
	for i, r := range lf.Records {
		if r.Kind == "" {
			return fmt.Errorf("telemetry: record %d has no kind", i)
		}
		if j, dup := seen[r.Seq]; dup {
			return fmt.Errorf("telemetry: records %d and %d share seq %d", j, i, r.Seq)
		}
		seen[r.Seq] = i
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}
	// Sequences are reserved 0..N-1 up front and every reserved cell emits a
	// record (budget-expired cells emit explicit "skipped" ones), so a gap
	// means lost records — a truncated or corrupted ledger.
	if uint64(len(lf.Records)) != maxSeq+1 {
		for s := uint64(0); s <= maxSeq; s++ {
			if _, ok := seen[s]; !ok {
				return fmt.Errorf("telemetry: ledger is missing seq %d (%d records, max seq %d): truncated?",
					s, len(lf.Records), maxSeq)
			}
		}
	}
	return nil
}

// SortBySeq orders records by sequence number (the deterministic merge order
// for parallel campaigns).
func (lf *LedgerFile) SortBySeq() {
	sort.Slice(lf.Records, func(i, j int) bool { return lf.Records[i].Seq < lf.Records[j].Seq })
}

// workerKey carries the worker index in a context, so the campaign engine
// (campaign.Sweep) can stamp records without threading an index through
// every call signature.
type workerKey struct{}

// WithWorker tags ctx with a worker index.
func WithWorker(ctx context.Context, w int) context.Context {
	return context.WithValue(ctx, workerKey{}, w)
}

// Worker extracts the worker index from ctx (0 when absent).
func Worker(ctx context.Context) int {
	if v, ok := ctx.Value(workerKey{}).(int); ok {
		return v
	}
	return 0
}
