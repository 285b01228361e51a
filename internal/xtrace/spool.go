package xtrace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Spool errors.
var (
	// ErrSpoolBudget reports a trace too large for the spool's byte
	// budget even with everything else evicted (the server maps this to
	// 413).
	ErrSpoolBudget = errors.New("xtrace: trace exceeds the spool byte budget")
	// ErrNotFound reports an unknown trace ID.
	ErrNotFound = errors.New("xtrace: no such trace")
)

// spoolExt is the on-disk extension of spooled traces
// (<content-id>.xut, canonical binary encoding).
const spoolExt = ".xut"

// Spool is a bounded, content-addressed disk store of uploaded traces.
// IDs are the SHA-256 of the canonical binary encoding — the same
// fingerprint discipline the run memo uses — so re-uploads deduplicate
// and a trace ID names exactly one stream of micro-ops forever. Least
// recently used traces are evicted when the byte budget is exceeded;
// pinned traces and the most recent trace are always retained.
type Spool struct {
	mu        sync.Mutex
	dir       string
	maxBytes  int64
	bytes     int64
	sizes     map[string]int64
	pins      map[string]int // eviction holds, keyed by ID
	order     []string       // front = least recently used
	evictions uint64
}

// OpenSpool opens (creating if needed) a spool rooted at dir with the
// given byte budget, re-indexing any traces a previous process left
// behind (oldest-modified first, so eviction order survives restarts).
func OpenSpool(dir string, maxBytes int64) (*Spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("xtrace: open spool: %w", err)
	}
	s := &Spool{dir: dir, maxBytes: maxBytes, sizes: map[string]int64{}, pins: map[string]int{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("xtrace: open spool: %w", err)
	}
	type old struct {
		id   string
		size int64
		mod  int64
	}
	var olds []old
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, spoolExt) {
			continue
		}
		id := strings.TrimSuffix(name, spoolExt)
		if !validID(id) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		olds = append(olds, old{id: id, size: fi.Size(), mod: fi.ModTime().UnixNano()})
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i].mod < olds[j].mod })
	for _, o := range olds {
		s.sizes[o.id] = o.size
		s.order = append(s.order, o.id)
		s.bytes += o.size
	}
	s.mu.Lock()
	s.evict()
	s.mu.Unlock()
	return s, nil
}

// validID reports whether id is a well-formed content ID (hex SHA-256),
// which also guarantees it is path-safe.
func validID(id string) bool {
	if len(id) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(id)
	return err == nil
}

// Canonical is a trace's canonical binary encoding and its content ID,
// the hex SHA-256 of that encoding. Only Canonicalize builds one, so
// the ID always names the bytes.
type Canonical struct {
	id    string
	bytes []byte
}

// Canonicalize encodes t canonically and derives its content ID.
func Canonicalize(t *Trace) Canonical {
	b := CanonicalBytes(t)
	sum := sha256.Sum256(b)
	return Canonical{id: hex.EncodeToString(sum[:]), bytes: b}
}

// ID is the trace's content ID.
func (c Canonical) ID() string { return c.id }

// Size is the length of the canonical encoding.
func (c Canonical) Size() int64 { return int64(len(c.bytes)) }

// TraceID returns the content ID of a trace.
func TraceID(t *Trace) string { return Canonicalize(t).id }

// Fits reports, as ErrSpoolBudget, a trace larger than the whole
// budget, which Put would reject even with everything else evicted.
func (s *Spool) Fits(c Canonical) error {
	if c.Size() > s.maxBytes {
		return fmt.Errorf("%w: trace is %d bytes, budget %d", ErrSpoolBudget, c.Size(), s.maxBytes)
	}
	return nil
}

// Put stores a canonically encoded trace and reports whether it was
// already present (a deduplicated re-upload). A trace that does not
// fit the budget fails with ErrSpoolBudget.
func (s *Spool) Put(c Canonical) (dup bool, err error) {
	id, b, size := c.id, c.bytes, c.Size()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sizes[id]; ok {
		s.touch(id)
		return true, nil
	}
	if err := s.Fits(c); err != nil {
		return false, err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return false, fmt.Errorf("xtrace: spool write: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.path(id))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("xtrace: spool write: %w", werr)
	}
	s.sizes[id] = size
	s.order = append(s.order, id)
	s.bytes += size
	s.evict()
	return false, nil
}

// Get loads a spooled trace by content ID.
func (s *Spool) Get(id string) (*Trace, error) {
	f, _, err := s.open(id)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f, Limits{})
}

// Info reads only the header of a spooled trace and returns it with the
// trace's size. Spooled files are canonical binary, so the header's
// UOps is the exact record count.
func (s *Spool) Info(id string) (Header, int64, error) {
	f, size, err := s.open(id)
	if err != nil {
		return Header{}, 0, err
	}
	defer f.Close()
	lr := &limitedReader{r: f, n: size}
	t, err := decodeBinaryHeader(bufio.NewReader(lr), lr, DefaultLimits)
	if err != nil {
		return Header{}, 0, err
	}
	return t.Header, size, nil
}

// open opens the spool file of id, marking it recently used, and
// returns its size.
func (s *Spool) open(id string) (*os.File, int64, error) {
	if !validID(id) {
		return nil, 0, fmt.Errorf("%w: malformed ID %q", ErrNotFound, id)
	}
	s.mu.Lock()
	size, ok := s.sizes[id]
	if ok {
		s.touch(id)
	}
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s (spool file: %v)", ErrNotFound, id, err)
	}
	return f, size, nil
}

// Pin marks id as in use, protecting it from eviction until a matching
// Unpin, and reports whether the trace is present. Callers that hand
// out a trace ID for deferred work (a queued job) pin at admission so
// later uploads cannot evict the trace out from under the job.
func (s *Spool) Pin(id string) bool {
	if !validID(id) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sizes[id]; !ok {
		return false
	}
	s.pins[id]++
	s.touch(id)
	return true
}

// Unpin releases one Pin hold on id. Extra unpins are ignored.
func (s *Spool) Unpin(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[id] <= 1 {
		delete(s.pins, id)
	} else {
		s.pins[id]--
	}
}

// Has reports whether the spool currently holds id.
func (s *Spool) Has(id string) bool {
	if !validID(id) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sizes[id]
	return ok
}

// List returns the spooled IDs, most recently used last.
func (s *Spool) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Stats reports the spool's entry count, byte occupancy, byte budget,
// and lifetime eviction count.
func (s *Spool) Stats() (entries int, bytes, maxBytes int64, evictions uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes), s.bytes, s.maxBytes, s.evictions
}

func (s *Spool) path(id string) string { return filepath.Join(s.dir, id+spoolExt) }

// touch moves id to the most-recent end. Caller holds s.mu.
func (s *Spool) touch(id string) {
	for i, k := range s.order {
		if k == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.order = append(s.order, id)
}

// evict removes least-recently-used traces while over budget, skipping
// pinned entries and always retaining the most recent one. Pins can
// leave the spool over budget; it drains back under once they release.
// Caller holds s.mu.
func (s *Spool) evict() {
	i := 0
	for s.bytes > s.maxBytes && i < len(s.order)-1 {
		old := s.order[i]
		if s.pins[old] > 0 {
			i++
			continue
		}
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.bytes -= s.sizes[old]
		delete(s.sizes, old)
		os.Remove(s.path(old))
		s.evictions++
	}
}
