package campaign

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// A record is one stored result. Its 16-byte header holds, little-endian,
// the magic, the record version, the body length and the CRC-32C of the
// body. The body holds the key's fields (see appendKey), then the result's
// JSON payload.
const (
	recordMagic   = "APCR"
	recordVersion = 2 // 1 was a JSON file per result, which this store does not read
	headerLen     = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errRecord = errors.New("campaign: torn or corrupt record")

// appendKey appends k's string fields, each length-prefixed, and its tamper
// bit as one byte: the start of a record body.
func appendKey(b []byte, k Key) []byte {
	for _, f := range [...]string{k.Check, k.Kind, k.ProgDigest, k.Policy, k.Options, k.Model, k.Site} {
		b = appendString(b, f)
	}
	if k.Tamper {
		return append(b, 1)
	}
	return append(b, 0)
}

// encodeRecord returns the record storing payload under k.
func encodeRecord(k Key, payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+256+len(payload))
	copy(b, recordMagic)
	binary.LittleEndian.PutUint32(b[4:], recordVersion)
	b = append(appendKey(b, k), payload...)
	body := b[headerLen:]
	binary.LittleEndian.PutUint32(b[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[12:], crc32.Checksum(body, castagnoli))
	return b
}

// decodeRecord decodes the record at the start of b and returns its key, its
// payload (aliasing b) and its length. A record that is cut short, carries
// another magic or version, fails its CRC or whose key fields do not parse is
// errRecord.
func decodeRecord(b []byte) (k Key, payload []byte, n int, err error) {
	if len(b) < headerLen || string(b[:4]) != recordMagic || binary.LittleEndian.Uint32(b[4:]) != recordVersion {
		return Key{}, nil, 0, errRecord
	}
	bodyLen := binary.LittleEndian.Uint32(b[8:])
	if uint64(bodyLen) > uint64(len(b)-headerLen) {
		return Key{}, nil, 0, errRecord
	}
	body := b[headerLen : headerLen+int(bodyLen)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[12:]) {
		return Key{}, nil, 0, errRecord
	}
	for _, f := range [...]*string{&k.Check, &k.Kind, &k.ProgDigest, &k.Policy, &k.Options, &k.Model, &k.Site} {
		if len(body) < 8 || binary.LittleEndian.Uint64(body) > uint64(len(body)-8) {
			return Key{}, nil, 0, errRecord
		}
		l := int(binary.LittleEndian.Uint64(body))
		*f, body = string(body[8:8+l]), body[8+l:]
	}
	if len(body) == 0 || body[0] > 1 {
		return Key{}, nil, 0, errRecord
	}
	k.Tamper = body[0] == 1
	return k, body[1:], headerLen + int(bodyLen), nil
}

// segment is one append-only file of records.
type segment struct {
	f    *os.File
	size int64 // bytes of whole records; the next append goes here
}

// loc addresses one record: its segment, offset and length.
type loc struct {
	seg *segment
	off int64
	n   int
}

// Store is an on-disk content-addressed result cache. Results live in
// append-only segment files (dir/*.seg), one per writer: a Store creates its
// own segment, with a unique name, on its first Put, so campaigns sharing a
// directory never write to one file; the workers of one campaign share its
// segment behind the store's lock. Open reads every segment once and indexes
// each key to the place of its record; the index holds no payloads. A miss
// then costs one map lookup, a hit one read, and a Put one write of a whole
// record.
//
// A segment's scan stops at the first record that does not verify, so a
// torn tail — a crash mid-write — reads as a miss. When a key appears more
// than once the later record wins; results are deterministic, so the
// payloads are equal anyway. A hit re-checks the record's CRC and that its
// stored key equals the asked one field for field, so a segment changed
// after Open never serves a wrong result: corrupt, key-mismatched and
// unreadable records are misses. Nothing is buffered in user space and
// nothing is synced: a record Put returned survives its process exiting or
// crashing, though not a crash of the machine.
//
// A record another live process appends becomes visible at the next Open;
// until then a miss re-simulates the cell and appends an identical payload.
// The store reads nothing but *.seg files, so a directory of an older layout
// reads as empty. Its files stay open for the store's lifetime.
type Store struct {
	dir string

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	mu    sync.Mutex
	index map[[32]byte]loc
	w     *segment // this store's segment: nil before the first Put and after a write it could not undo
	err   error    // first write error, surfaced by Err
}

// Open creates (if needed) and opens a cache directory, indexing the records
// of every segment in it. It writes no file.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s := &Store{dir: dir, index: make(map[[32]byte]loc)}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // an unreadable segment's records are misses
		}
		if !s.scan(f) {
			f.Close()
		}
	}
	return s, nil
}

// scan indexes the records of segment file f in order, up to the first that
// does not verify or cannot be read, and reports whether it found any.
func (s *Store) scan(f *os.File) bool {
	st, err := f.Stat()
	if err != nil {
		return false
	}
	seg := &segment{f: f}
	r := bufio.NewReaderSize(f, int(min(st.Size(), 64<<10)))
	var hdr [headerLen]byte
	var buf []byte
	for seg.size+headerLen <= st.Size() {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		n := headerLen + int64(binary.LittleEndian.Uint32(hdr[8:]))
		if seg.size+n > st.Size() {
			break // torn tail
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		copy(buf, hdr[:])
		if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
			break
		}
		k, _, _, err := decodeRecord(buf)
		if err != nil {
			break
		}
		s.index[k.sum()] = loc{seg: seg, off: seg.size, n: int(n)}
		seg.size += n
	}
	return seg.size > 0
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get looks k up and, on a hit, decodes the stored result into out (a
// pointer). A missing, torn, corrupt, or key-mismatched record is a miss; a
// record that cannot be read is a miss returned with the read error.
func (s *Store) Get(k Key, out any) (bool, error) {
	id := k.sum()
	s.mu.Lock()
	l, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return false, nil
	}
	rec := make([]byte, l.n)
	if _, err := l.seg.f.ReadAt(rec, l.off); err != nil {
		s.misses.Add(1)
		return false, fmt.Errorf("campaign: %w", err)
	}
	got, payload, _, err := decodeRecord(rec)
	if err != nil || got != k || json.Unmarshal(payload, out) != nil {
		s.misses.Add(1)
		return false, nil
	}
	s.hits.Add(1)
	return true, nil
}

// Put records v as the result of k, appending one record to the store's
// segment. Since results are deterministic functions of the key, a key put
// twice stores identical payloads. The first write error is sticky (see Err)
// so campaigns on a full or read-only disk fail loudly at the end, not
// silently cell by cell.
func (s *Store) Put(k Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		err = fmt.Errorf("campaign: encode: %w", err)
	} else {
		err = s.appendRecord(k.sum(), encodeRecord(k, payload))
	}
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}
	s.puts.Add(1)
	return nil
}

// appendRecord writes rec, the record of key id, at the end of the store's
// segment, creating the segment first if need be.
func (s *Store) appendRecord(id [32]byte, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		f, err := os.CreateTemp(s.dir, "*.seg")
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		s.w = &segment{f: f}
	}
	w := s.w
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		// A torn record would hide every later one from the next Open: cut
		// it off, or append no more to this segment.
		if w.f.Truncate(w.size) != nil {
			s.w = nil
		}
		return fmt.Errorf("campaign: %w", err)
	}
	s.index[id] = loc{seg: w, off: w.size, n: len(rec)}
	w.size += int64(len(rec))
	return nil
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
