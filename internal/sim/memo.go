package sim

import (
	"container/list"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// The run memo: a completed (profile, mode, budget, warmup, config)
// simulation is recorded under the value of its inputs, so
// the RP/RPO runs that fig6, the fig7/fig8 breakdowns, table3 and fig9
// all repeat execute once per sweep instead of once per figure.
// Simulations are deterministic, so serving the memo is observationally
// identical to re-running.
//
// Long-lived hosts (replayd) keep the memo warm across requests, so it
// is LRU-bounded: each hit refreshes the entry, and inserts beyond the
// entry budget evict the least recently used result. A Stats value is a
// few hundred bytes, so the default budget holds every run of the
// paper's full sweep many times over while still capping an adversarial
// stream of distinct custom-workload requests.

// DefaultMemoEntries is the default run-memo entry budget.
const DefaultMemoEntries = 4096

// memoKey is a comparable value: every field, nested ones included, is
// a bool, number or string (TestFingerprintValueStruct pins it), so two
// keys are equal exactly when their inputs are. == equates -0 and +0,
// which the generator and engine treat alike; a NaN anywhere makes a key
// unequal to itself, and run skips the memo for it.
type memoKey struct {
	input    inputID
	mode     pipeline.Mode
	budget   int
	warmFrac float64
	config   pipeline.Config
}

// inputID is a run input's memo identity: a generated workload by its
// profile, an external trace by "xtrace:" and its content ID. The zero
// value disables the memo.
type inputID struct {
	profile workload.Profile
	xtrace  string
}

// selfEqual reports whether k equals itself, false exactly when a
// float field holds NaN. Such a key can never be found again in a map,
// nor deleted from one.
func selfEqual[K comparable](k K) bool { return k == k }

// memoEntry is one memoized run, an element of memo.lru.
type memoEntry struct {
	key   memoKey
	stats pipeline.Stats
}

// memo finds a run by key and keeps recency in a list, so a hit or an
// eviction costs no scan over the other entries.
var memo = struct {
	sync.Mutex
	m     map[memoKey]*list.Element // of *memoEntry
	lru   *list.List                // front = most recently used
	limit int
}{m: map[memoKey]*list.Element{}, lru: list.New(), limit: DefaultMemoEntries}

func memoGet(k memoKey) (pipeline.Stats, bool) {
	memo.Lock()
	defer memo.Unlock()
	el, ok := memo.m[k]
	if !ok {
		return pipeline.Stats{}, false
	}
	memo.lru.MoveToFront(el)
	metrics.memoHits.Add(1)
	return el.Value.(*memoEntry).stats, true
}

func memoPut(k memoKey, s pipeline.Stats) {
	memo.Lock()
	defer memo.Unlock()
	if el, ok := memo.m[k]; ok {
		el.Value.(*memoEntry).stats = s
		memo.lru.MoveToFront(el)
		return
	}
	memo.m[k] = memo.lru.PushFront(&memoEntry{key: k, stats: s})
	memoEvict()
}

// memoEvict drops least recently used entries down to the limit. Caller
// holds memo.Mutex.
func memoEvict() {
	for memo.lru.Len() > memo.limit {
		delete(memo.m, memo.lru.Remove(memo.lru.Back()).(*memoEntry).key)
	}
}

// SetMemoLimit sets the run-memo entry budget (minimum 1) and evicts
// down to it immediately.
func SetMemoLimit(entries int) {
	if entries < 1 {
		entries = 1
	}
	memo.Lock()
	defer memo.Unlock()
	memo.limit = entries
	memoEvict()
}

// MemoOccupancy reports the run memo's current and maximum entry count.
func MemoOccupancy() (entries, limit int) {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.m), memo.limit
}

// ResetCaches clears the shared slot-stream captures and the run memo.
// Benchmarks use it to measure cold sweeps; long-lived hosts can use it
// to release capture memory. Monotonic service counters (run/hit
// totals) are preserved; only occupancy drops to zero.
func ResetCaches() {
	captures.reset()
	memo.Lock()
	memo.m = map[memoKey]*list.Element{}
	memo.lru.Init()
	memo.Unlock()
}
