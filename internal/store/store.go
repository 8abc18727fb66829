// Package store is the disk-backed, content-addressed result store behind
// lisa-serve — the L2 behind the in-memory LRU. Mapping results are pure
// functions of their canonical cache key (dfg.Fingerprint + arch + engine +
// normalized options + seed + deadline, see service.cacheKey), so the bytes
// stored under a key are valid forever, across restarts, and across every
// process that shares the directory: a restarted daemon serves yesterday's
// results byte-identically with zero mapper invocations, and a fleet of
// daemons can treat one another's stores as interchangeable.
//
// Durability model:
//
//   - One file per entry (<key>.entry), self-verifying: a header line
//     carrying the SHA-256 and length of the body, then the body bytes.
//     Readers verify both on every Get; a mismatch is a miss, never a
//     served lie.
//   - Writes are write-to-temp + fsync + atomic rename. A crash mid-write
//     leaves a tmp-* orphan (swept on Open), never a half-visible entry;
//     a torn final file (emulated by the store.write fault site, or real
//     filesystem corruption) is detected by its checksum, dropped, and
//     rewritten by the next compute.
//   - A generation-stamped index (INDEX.json) records how many times the
//     directory has been opened and what the scan found. The index is
//     advisory — authoritative state is always the entries themselves —
//     so index loss or corruption costs a rescan, not data.
//
// Every failure mode short of "the directory is gone" is non-fatal:
// corrupt and truncated entries are skipped and deleted, read errors are
// misses, and write errors leave the previous state intact. The serving
// layer counts these in /metrics and keeps computing.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/lisa-go/lisa/internal/fault"
)

// ErrNotFound reports a Get for a key with no (valid) entry on disk.
var ErrNotFound = errors.New("store: entry not found")

// CorruptError reports an entry that failed its self-verification — a torn
// write, bit rot, or a foreign file posing as an entry. The entry has been
// removed; the caller should treat the Get as a miss and recompute.
type CorruptError struct {
	Key    string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: entry %s corrupt (%s); dropped", e.Key, e.Reason)
}

// Format heads every entry file and is the first line service.cacheKey
// hashes: it names the body format, so it moves whenever equal requests
// start getting different body bytes. Open drops an entry headed by any
// other format and counts it in Dropped, so a format move retires every
// body of the old format, which no key can reach, at the next start.
const Format = "lisa-serve/v2"

const (
	// indexFormat tags the index, so a directory written by an incompatible
	// future index layout restarts the generation count instead of
	// misreading it.
	indexFormat = "lisa-store/v1"

	entrySuffix = ".entry"
	tmpPrefix   = "tmp-"
	indexName   = "INDEX.json"
)

// index is the generation stamp written at every Open. Advisory: entries
// are individually self-verifying, so a stale or missing index only means
// the next Open rescans from scratch at generation 1.
type index struct {
	Format     string `json:"format"`
	Generation uint64 `json:"generation"`
	Entries    int    `json:"entries"`
	Dropped    int    `json:"dropped"` // invalid entries removed by the last scan
}

// Store is a content-addressed body store rooted at one directory. All
// methods are safe for concurrent use; separate processes may share the
// directory (atomic renames make cross-process writes safe, and identical
// keys always carry identical bytes, so write races are benign).
type Store struct {
	dir string
	gen uint64

	mu       sync.Mutex
	entries  int
	bytes    int64
	dropped  int                      // torn/corrupt entries removed since Open (incl. the Open scan)
	inflight map[string]chan struct{} // key -> closed when its in-flight Put finishes
}

// Open prepares dir (creating it if needed), sweeps crash debris, verifies
// every entry, and stamps a new index generation. Corrupt or truncated
// entries are deleted — recovery is rewriting them on the next compute —
// and never abort the open.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, inflight: map[string]chan struct{}{}}

	prev := s.readIndex()
	s.gen = prev.Generation + 1

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			// A crash between temp-write and rename; the entry was never
			// visible, so removal is the whole recovery.
			_ = os.Remove(filepath.Join(dir, name)) // best effort: an orphan that survives is re-swept next Open
		case strings.HasSuffix(name, entrySuffix):
			key := strings.TrimSuffix(name, entrySuffix)
			body, err := s.readEntry(key)
			if err != nil {
				continue // readEntry already deleted and counted the drop
			}
			s.entries++
			s.bytes += int64(len(body))
		}
	}
	if err := s.writeIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// readIndex loads the previous index, tolerating absence and corruption
// (both mean "start the generation count over").
func (s *Store) readIndex() index {
	var idx index
	raw, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return index{}
	}
	if json.Unmarshal(raw, &idx) != nil || idx.Format != indexFormat {
		return index{}
	}
	return idx
}

// writeIndex stamps the current census atomically. s.mu must not be held.
func (s *Store) writeIndex() error {
	s.mu.Lock()
	idx := index{Format: indexFormat, Generation: s.gen, Entries: s.entries, Dropped: s.dropped}
	s.mu.Unlock()
	raw, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.atomicWrite(filepath.Join(s.dir, indexName), raw)
}

// atomicWrite lands data at path via temp file + fsync + rename, so a
// reader (this process or another sharing the directory) never observes a
// partial file under the final name.
func (s *Store) atomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; Open sweeps tmp orphans anyway
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// validKey guards the filesystem mapping: keys are the lowercase-hex
// SHA-256 content addresses the service computes, never client-controlled
// paths.
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// Get returns the body stored under key. ErrNotFound is the ordinary miss;
// a *CorruptError means a damaged entry was found, deleted, and should be
// recomputed; other errors are I/O failures (also safe to treat as misses).
//
//lisa:hotpath the L2 read behind every in-memory cache miss; only the I/O itself may allocate
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	if err := fault.Inject(fault.StoreRead, fault.Token(key)); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", key, err)
	}
	return s.readEntry(key)
}

// readEntry reads and verifies one entry, deleting it on any mismatch.
func (s *Store) readEntry(key string) ([]byte, error) {
	raw, err := os.ReadFile(s.entryPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	body, reason := decodeEntry(raw)
	if reason != "" {
		s.drop(key)
		return nil, &CorruptError{Key: key, Reason: reason}
	}
	return body, nil
}

// decodeEntry parses and verifies the self-checking entry format. It
// returns the body and an empty reason on success.
func decodeEntry(raw []byte) (body []byte, reason string) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, "no header"
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 3 || fields[0] != Format {
		return nil, "bad header"
	}
	wantSum := fields[1]
	// strconv.Atoi, not Sscanf: Sscanf("%d") accepts trailing junk
	// ("12abc" parses as 12), which would let a corrupted length field
	// masquerade as valid.
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, "bad length field"
	}
	body = raw[nl+1:]
	if len(body) != wantLen {
		return nil, fmt.Sprintf("truncated: %d of %d body bytes", len(body), wantLen)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, "checksum mismatch"
	}
	return body, ""
}

// drop removes a damaged entry and adjusts the census. The byte census may
// briefly over-count after a post-Open corruption (the original body length
// is unrecoverable from a torn file); the next Open's scan rebuilds it.
func (s *Store) drop(key string) {
	_ = os.Remove(s.entryPath(key)) // best effort: a lingering corrupt file is re-detected and re-dropped
	s.mu.Lock()
	if s.entries > 0 {
		s.entries--
	}
	s.dropped++
	s.mu.Unlock()
}

// encodeEntry renders the on-disk form of body.
func encodeEntry(body []byte) []byte {
	sum := sha256.Sum256(body)
	header := fmt.Sprintf("%s %s %d\n", Format, hex.EncodeToString(sum[:]), len(body))
	out := make([]byte, 0, len(header)+len(body))
	out = append(out, header...)
	return append(out, body...)
}

// Put stores body under key. Content addressing makes the first write
// authoritative: a key that already has a valid entry is left untouched
// (the bytes are identical by construction), so concurrent writers and
// re-puts after restarts are harmless. A write failure leaves the previous
// state intact and is safe to ignore beyond counting it.
func (s *Store) Put(key string, body []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	// Claim the key under the lock, write outside it: atomicWrite ends in
	// an fsync, and holding s.mu across that would stall every Get/Len/
	// metrics read for a disk flush (lockorder flags exactly this shape).
	// Writers that lose the claim wait for the winner and then retry, so
	// a Put that returns nil always means the entry is on disk — either
	// this call wrote it or an identical-bytes writer did.
	claim := func() (chan struct{}, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if ch := s.inflight[key]; ch != nil {
			return ch, false
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		return ch, true
	}
	var done chan struct{}
	for {
		ch, won := claim()
		if won {
			done = ch
			break
		}
		<-ch // winner finished (or failed); re-check the disk and re-claim
	}
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(done)
	}()

	if _, err := os.Stat(s.entryPath(key)); err == nil {
		return nil
	}
	data := encodeEntry(body)
	if err := fault.Inject(fault.StoreWrite, fault.Token(key)); err != nil {
		// Emulate the crash this site models: a torn entry under the final
		// name — header intact, body cut short — exactly what a non-atomic
		// writer dying mid-write (or sector corruption) leaves behind. The
		// recovery scan and per-read verification must drop it.
		_ = os.WriteFile(s.entryPath(key), data[:len(data)-len(body)/2-1], 0o644) // best effort: the fault is the outcome either way
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := s.atomicWrite(s.entryPath(key), data); err != nil {
		return err
	}
	s.mu.Lock()
	s.entries++
	s.bytes += int64(len(body))
	s.mu.Unlock()
	return nil
}

// CheckWritable probes the directory with a create+remove round trip; the
// readiness endpoint uses it to report a full or read-only disk before a
// load balancer routes traffic here.
func (s *Store) CheckWritable() error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"probe-*")
	if err != nil {
		return fmt.Errorf("store: not writable: %w", err)
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		_ = os.Remove(name) // best effort; Open sweeps tmp orphans
		return fmt.Errorf("store: not writable: %w", err)
	}
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("store: not writable: %w", err)
	}
	return nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the index generation stamped at Open: how many times
// this directory has been opened (and therefore scanned) over its life.
func (s *Store) Generation() uint64 { return s.gen }

// Len reports the live entry count (entries found valid at Open plus Puts
// since, minus drops).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// Bytes reports the total body bytes behind Len.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Dropped reports how many invalid entries have been removed since Open,
// including the Open scan itself.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Keys lists the keys of every entry file currently present, sorted. It
// reads the directory (not the census), so entries written by other
// processes appear too; bodies are not verified.
func (s *Store) Keys() ([]string, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []string
	for _, de := range names {
		if name := de.Name(); strings.HasSuffix(name, entrySuffix) {
			keys = append(keys, strings.TrimSuffix(name, entrySuffix))
		}
	}
	sort.Strings(keys)
	return keys, nil
}
