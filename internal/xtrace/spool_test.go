package xtrace

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func spoolTrace(eip uint32, n int) *Trace {
	t := &Trace{Header: Header{Version: FormatVersion, Name: "sp", Arch: "test"}}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, Record{EIP: eip + uint32(i)*4, Class: ClassExec, Flags: RecFirst})
	}
	return t
}

func TestSpoolPutGetDedup(t *testing.T) {
	s, err := OpenSpool(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tr := spoolTrace(0x1000, 8)
	c := Canonicalize(tr)
	dup, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	if dup || !validID(c.ID()) {
		t.Fatalf("put: id=%q dup=%v", c.ID(), dup)
	}
	if c.ID() != TraceID(tr) {
		t.Fatalf("put ID %s != TraceID %s", c.ID(), TraceID(tr))
	}
	if dup, _ := s.Put(c); !dup {
		t.Fatal("re-upload not deduplicated")
	}
	got, err := s.Get(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 8 || got.Header.Name != "sp" {
		t.Fatalf("got %+v", got.Header)
	}
	h, size, err := s.Info(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if h != got.Header || size != c.Size() {
		t.Fatalf("info = %+v, %d bytes; want %+v, %d bytes", h, size, got.Header, c.Size())
	}
	for _, id := range []string{strings.Repeat("ab", 32), "../escape"} {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get %q: err = %v", id, err)
		}
		if _, _, err := s.Info(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("info %q: err = %v", id, err)
		}
	}
}

// put spools tr and returns its content ID.
func put(s *Spool, tr *Trace) (string, error) {
	c := Canonicalize(tr)
	_, err := s.Put(c)
	return c.ID(), err
}

func TestSpoolBudgetAndEviction(t *testing.T) {
	one := spoolTrace(0x1000, 4)
	unit := int64(len(CanonicalBytes(one)))

	s, err := OpenSpool(t.TempDir(), unit*2+unit/2) // room for two
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 3)
	for i := range ids {
		id, err := put(s, spoolTrace(uint32(0x1000*(i+1)), 4))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	entries, bytes, maxBytes, evictions := s.Stats()
	if entries != 2 || bytes > maxBytes || evictions != 1 {
		t.Fatalf("stats = %d entries, %d/%d bytes, %d evictions", entries, bytes, maxBytes, evictions)
	}
	if s.Has(ids[0]) {
		t.Fatal("LRU entry not evicted")
	}
	if !s.Has(ids[1]) || !s.Has(ids[2]) {
		t.Fatal("recent entries evicted")
	}

	// A single trace over the whole budget is refused, not spooled.
	tiny, err := OpenSpool(t.TempDir(), unit-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Fits(Canonicalize(one)); !errors.Is(err, ErrSpoolBudget) {
		t.Fatalf("oversize fits: err = %v, want ErrSpoolBudget", err)
	}
	if err := s.Fits(Canonicalize(one)); err != nil {
		t.Fatalf("fits: %v", err)
	}
	if _, err := put(tiny, one); !errors.Is(err, ErrSpoolBudget) {
		t.Fatalf("oversize put: err = %v, want ErrSpoolBudget", err)
	}
}

// A pinned trace survives budget pressure; eviction falls on the
// oldest unpinned entry instead, and releasing the pin makes the trace
// evictable again.
func TestSpoolPinBlocksEviction(t *testing.T) {
	one := spoolTrace(0x1000, 4)
	unit := int64(len(CanonicalBytes(one)))
	s, err := OpenSpool(t.TempDir(), unit*2+unit/2) // room for two
	if err != nil {
		t.Fatal(err)
	}
	idA, err := put(s, spoolTrace(0x1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := put(s, spoolTrace(0x2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Pin(idA) {
		t.Fatal("pin of a present trace failed")
	}
	if s.Pin(strings.Repeat("ab", 32)) {
		t.Fatal("pin of an absent trace succeeded")
	}
	idC, err := put(s, spoolTrace(0x3000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(idA) {
		t.Fatal("pinned trace was evicted")
	}
	if s.Has(idB) || !s.Has(idC) {
		t.Fatalf("eviction fell on the wrong entry: B=%v C=%v", s.Has(idB), s.Has(idC))
	}
	s.Unpin(idA)
	if _, err := put(s, spoolTrace(0x4000, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Has(idA) {
		t.Fatal("unpinned LRU trace survived eviction")
	}
}

func TestSpoolReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	id, err := put(s, spoolTrace(0x2000, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Junk files are ignored on rescan.
	os.WriteFile(filepath.Join(dir, "junk.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "nothex.xut"), []byte("x"), 0o644)

	re, err := OpenSpool(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Has(id) {
		t.Fatal("reopened spool lost the trace")
	}
	got, err := re.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 6 {
		t.Fatalf("reloaded %d records, want 6", len(got.Records))
	}
	if entries, _, _, _ := re.Stats(); entries != 1 {
		t.Fatalf("reopened spool has %d entries", entries)
	}
}
