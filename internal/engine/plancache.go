package engine

import (
	"sort"
	"strings"
	"sync"
)

// planCache memoizes compiled queries so a repeated statement skips the
// whole front end (parse → calculus → optimize → compile) and jumps
// straight to its specialized program. Entries are keyed by profile level,
// language and whitespace-normalized query text — a traced program is
// cached beside the untraced one, never instead of it — and stamped with the catalog and cache
// epochs observed at compile time: any catalog change (register/drop/plug-in)
// or cache-content change (block registered or evicted) silently invalidates
// affected entries, because the compiled program may bake in dataset
// layouts, cache-hit scan paths, or cache-build claims that no longer hold.
//
// A Program is not runnable concurrently with itself (compiled accumulators
// hold per-run state), so each entry carries a mutex held for the duration
// of the run. A second identical query arriving mid-run simply misses and
// compiles fresh rather than blocking — plan caching is an optimization,
// never a serialization point.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	cap     int
	tick    uint64 // logical clock for LRU ordering
}

type planEntry struct {
	mu           sync.Mutex // held while the entry's program is running
	prepared     *Prepared
	catalogEpoch uint64
	cacheEpoch   uint64
	lastUsed     uint64
}

// release hands the entry back after its program finished running; a nil
// entry (plan caching off) is a no-op.
func (en *planEntry) release() {
	if en != nil {
		en.mu.Unlock()
	}
}

func newPlanCache(capacity int) *planCache {
	return &planCache{entries: map[string]*planEntry{}, cap: capacity}
}

// planKey builds the cache key: profile level, language tag, and the query
// text with runs of whitespace collapsed. No case folding — string literals
// are case-sensitive, and the parser already treats keywords uniformly.
func planKey(lang, query string, level profLevel) string {
	return "0123"[level:level+1] + lang + "\x00" + strings.Join(strings.Fields(query), " ")
}

// lookup returns the entry for key locked and ready to run, or nil on a
// miss. Entries whose recorded epochs no longer match the current ones are
// dropped on sight; entries busy running another query count as misses.
func (pc *planCache) lookup(key string, catalogEpoch, cacheEpoch uint64) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	en, ok := pc.entries[key]
	if !ok {
		return nil
	}
	if en.catalogEpoch != catalogEpoch || en.cacheEpoch != cacheEpoch {
		delete(pc.entries, key)
		return nil
	}
	if !en.mu.TryLock() {
		return nil
	}
	pc.tick++
	en.lastUsed = pc.tick
	return en
}

// store inserts a freshly prepared query and returns its entry locked (the
// caller runs the program, then releases). If another goroutine stored the
// key first, the resident entry wins and a detached locked entry is returned
// so the caller's run/release sequence stays uniform.
func (pc *planCache) store(key string, p *Prepared, catalogEpoch, cacheEpoch uint64) *planEntry {
	en := &planEntry{prepared: p, catalogEpoch: catalogEpoch, cacheEpoch: cacheEpoch}
	en.mu.Lock()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.tick++
	en.lastUsed = pc.tick
	if _, exists := pc.entries[key]; exists {
		return en
	}
	pc.entries[key] = en
	for len(pc.entries) > pc.cap {
		if !pc.evictOne(key) {
			break
		}
	}
	return en
}

// evictOne removes the least-recently-used entry other than keep, skipping
// entries whose program is mid-run. Returns false when nothing is evictable
// (every other entry is busy). Caller holds pc.mu.
func (pc *planCache) evictOne(keep string) bool {
	type cand struct {
		key string
		en  *planEntry
	}
	cands := make([]cand, 0, len(pc.entries))
	for k, en := range pc.entries {
		if k != keep {
			cands = append(cands, cand{k, en})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].en.lastUsed < cands[j].en.lastUsed })
	for _, c := range cands {
		if c.en.mu.TryLock() {
			c.en.mu.Unlock()
			delete(pc.entries, c.key)
			return true
		}
	}
	return false
}

// size reports the number of resident entries (tests only).
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}
