package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/lisa-go/lisa/internal/fault"
)

// key returns a valid content-address-shaped key derived from s.
func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	body := []byte(`{"result":"ok"}` + "\n")
	k := key("a")
	if err := s.Put(k, body); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, want %q", got, body)
	}
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Fatalf("census = %d entries / %d bytes, want 1 / %d", s.Len(), s.Bytes(), len(body))
	}
	if _, err := s.Get(key("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, k := range []string{"", "short", "../../etc/passwd", "UPPERHEX00000000", key("x") + "Z"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
		if _, err := s.Get(k); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want an invalid-key error", k, err)
		}
	}
}

func TestFirstWriteWins(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := key("a")
	if err := s.Put(k, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first" {
		t.Fatalf("re-put replaced content: %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after re-put, want 1", s.Len())
	}
}

func TestEntriesSurviveReopenByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	bodies := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := key(fmt.Sprintf("entry-%d", i))
		bodies[k] = []byte(fmt.Sprintf(`{"ii":%d,"routes":["r%d"]}`+"\n", i+1, i))
		if err := s.Put(k, bodies[k]); err != nil {
			t.Fatal(err)
		}
	}
	gen := s.Generation()

	// A second process (a restarted daemon) opens the same directory.
	s2 := mustOpen(t, dir)
	if s2.Generation() != gen+1 {
		t.Fatalf("generation = %d after reopen, want %d", s2.Generation(), gen+1)
	}
	if s2.Len() != len(bodies) {
		t.Fatalf("reopen found %d entries, want %d", s2.Len(), len(bodies))
	}
	for k, want := range bodies {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after reopen: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("entry %s not byte-identical after reopen", k)
		}
	}
}

// TestCrashRecoveryTornWrite is the crash-tolerance contract: a write
// killed mid-entry (the store.write fault site emulates the torn file a
// dying writer leaves) must be dropped by the restart scan, every
// surviving entry must come back byte-identical, and the torn key must be
// rewritable afterwards.
func TestCrashRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	good := map[string][]byte{}
	for i := 0; i < 5; i++ {
		k := key(fmt.Sprintf("good-%d", i))
		good[k] = []byte(fmt.Sprintf(`{"seed":%d,"result":{"ii":%d}}`+"\n", i, i%3+1))
		if err := s.Put(k, good[k]); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the torn-write fault for the victim key only (prob 1 fires for
	// every key, but we only write the victim while armed).
	plan, err := fault.ParsePlan("store.write=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	victim := key("victim")
	victimBody := []byte(`{"seed":99,"result":{"ii":2,"moves":1234}}` + "\n")
	if err := s.Put(victim, victimBody); err == nil {
		t.Fatal("Put under an armed store.write fault reported success")
	}
	fault.Deactivate()

	// The torn file is on disk under the final name — the worst case.
	raw, err := os.ReadFile(filepath.Join(dir, victim+entrySuffix))
	if err != nil {
		t.Fatalf("fault site left no torn file: %v", err)
	}
	if len(raw) >= len(encodeEntry(victimBody)) {
		t.Fatal("torn file is not actually truncated")
	}

	// "Restart": a fresh Open must rebuild the index with the torn entry
	// dropped and every survivor byte-identical.
	s2 := mustOpen(t, dir)
	if s2.Len() != len(good) {
		t.Fatalf("recovery scan kept %d entries, want %d", s2.Len(), len(good))
	}
	if s2.Dropped() != 1 {
		t.Fatalf("recovery scan dropped %d entries, want 1", s2.Dropped())
	}
	if _, err := os.Stat(filepath.Join(dir, victim+entrySuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("torn entry file survived the recovery scan")
	}
	for k, want := range good {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("survivor %s: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("survivor %s not byte-identical after recovery", k)
		}
	}

	// The torn key heals: the next compute rewrites it.
	if err := s2.Put(victim, victimBody); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(victim)
	if err != nil || !bytes.Equal(got, victimBody) {
		t.Fatalf("rewritten victim: %q, %v", got, err)
	}
}

func TestCorruptEntryDetectedOnGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := key("a")
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Flip a body byte behind the store's back (bit rot).
	path := filepath.Join(dir, k+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = s.Get(k)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Get on a corrupt entry = %v, want *CorruptError", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry was not removed")
	}
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound after self-heal", err)
	}
}

func TestOpenSweepsTmpOrphansAndForeignJunk(t *testing.T) {
	dir := t.TempDir()
	// Crash debris and a foreign file posing as an entry.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"orphan"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	junk := key("junk")
	if err := os.WriteFile(filepath.Join(dir, junk+entrySuffix), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1 (the junk entry)", s.Dropped())
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"orphan")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp orphan survived Open")
	}
}

// TestOpenDropsEntriesOfARetiredFormat: an entry written under an earlier
// body format (here lisa-store/v1, the header before Format) is intact —
// its checksum and length verify — but no request can produce its key any
// more, so Open deletes it and counts it as dropped.
func TestOpenDropsEntriesOfARetiredFormat(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"ii":2}` + "\n")
	sum := sha256.Sum256(body)
	old := key("old")
	raw := fmt.Sprintf("lisa-store/v1 %s %d\n%s", hex.EncodeToString(sum[:]), len(body), body)
	if err := os.WriteFile(filepath.Join(dir, old+entrySuffix), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if s.Len() != 0 || s.Dropped() != 1 {
		t.Fatalf("Len = %d, Dropped = %d; want 0 and 1", s.Len(), s.Dropped())
	}
	if _, err := os.Stat(filepath.Join(dir, old+entrySuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("retired-format entry survived Open")
	}
}

func TestIndexCorruptionOnlyResetsGeneration(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := key("a")
	if err := s.Put(k, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if s2.Generation() != 1 {
		t.Fatalf("generation after index loss = %d, want 1", s2.Generation())
	}
	if got, err := s2.Get(k); err != nil || string(got) != "body" {
		t.Fatalf("entry lost with the index: %q, %v", got, err)
	}
}

func TestStoreReadFaultIsAMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := key("a")
	if err := s.Put(k, []byte("body")); err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("store.read=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	defer fault.Deactivate()
	_, err = s.Get(k)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Site != fault.StoreRead {
		t.Fatalf("Get under store.read fault = %v, want injected error", err)
	}
	fault.Deactivate()
	if got, gerr := s.Get(k); gerr != nil || string(got) != "body" {
		t.Fatalf("entry damaged by a read fault: %q, %v", got, gerr)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key(fmt.Sprintf("k%d", i%8)) // contended: 4 writers per key
			body := []byte(fmt.Sprintf("body-%d", i%8))
			if err := s.Put(k, body); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			got, err := s.Get(k)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if string(got) != string(body) {
				t.Errorf("Get = %q, want %q", got, body)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
}

func TestKeysSorted(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var want []string
	for i := 0; i < 5; i++ {
		k := key(fmt.Sprintf("k%d", i))
		if err := s.Put(k, []byte("b")); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %d, want %d", len(keys), len(want))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("Keys not sorted")
		}
	}
}

// TestConcurrentSameKeyPutsCoalesce pins the claim-under-lock contract: many
// goroutines Putting the same key produce exactly one census entry, every
// Put returns with the entry readable, and s.mu is never held across the
// fsync (lockorder enforces the static side; this exercises the dynamic
// one under the race detector).
func TestConcurrentSameKeyPutsCoalesce(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := key("hot")
	body := []byte("same bytes from every writer")
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(k, body); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			// Put returning nil means the entry is on disk, even for
			// writers that lost the in-flight claim.
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, body) {
				t.Errorf("Get after Put = %q, %v", got, err)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("Len = %d after %d same-key Puts, want 1", s.Len(), n)
	}
	if s.Bytes() != int64(len(body)) {
		t.Fatalf("Bytes = %d, want %d (census double-counted a coalesced write)", s.Bytes(), len(body))
	}
}

// TestDecodeEntryRejectsTrailingJunkLength pins the strconv.Atoi fix:
// fmt.Sscanf("%d") accepted "12abc" as 12, letting a corrupted length
// field slip through header validation.
func TestDecodeEntryRejectsTrailingJunkLength(t *testing.T) {
	body := []byte("twelve bytes")
	sum := sha256.Sum256(body)
	raw := fmt.Sprintf("%s %s 12abc\n%s", Format, hex.EncodeToString(sum[:]), body)
	if _, reason := decodeEntry([]byte(raw)); reason != "bad length field" {
		t.Fatalf("decodeEntry reason = %q, want %q", reason, "bad length field")
	}
}
