package engine

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"proteus/internal/algebra"
	"proteus/internal/exec"
	"proteus/internal/expr"
	"proteus/internal/obs"
)

// planCache memoizes compiled queries on two levels, so a statement skips as
// much of the front end (parse → calculus → optimize → compile) as its
// history allows:
//
//   - The text level is keyed by profile level, language and
//     whitespace-normalized text. A text entry holds the text's own plan and
//     ORDER BY / LIMIT, its binding (exec.Binding: the literals plus the
//     bitmaps and zone predicates derived from them) and its shape. It holds
//     no program. A repeated text skips the whole front end, and installing
//     its binding into an idle program allocates nothing.
//   - The shape level is keyed by profile level, the ORDER BY / LIMIT and
//     the optimized plan's fingerprint with every bind-time literal replaced
//     by a typed slot (exec.ShapeKey). A shape entry owns the compiled
//     programs. A new text of a known shape runs parse → optimize, then binds
//     its literals into an idle program of the shape instead of compiling.
//
// Both levels are stamped with the catalog and cache epochs observed before
// the statement was planned: any catalog change (register/drop/plug-in) or
// cache-content change (block registered or evicted, index built) silently
// invalidates affected entries, because a compiled program bakes in dataset
// layouts, cache-hit scan paths and index access paths that no longer hold.
//
// A Program is not runnable concurrently with itself (compiled accumulators
// hold per-run state), so each program is locked for the duration of its
// run. A statement whose shape has no idle program compiles one more, which
// joins the shape's pool while it holds fewer than maxShapePrograms — plan
// caching is an optimization, never a serialization point.
//
// Text entries and programs share the capacity, each counting one, so the
// cache holds no more programs or plans than a per-text cache of the same
// capacity would. Room is made by evicting the least recently used text
// entry or idle shape.
type planCache struct {
	mu       sync.Mutex
	texts    map[string]*textEntry
	shapes   map[string]*shapeEntry
	programs int // programs held by all shapes
	cap      int
	tick     uint64 // logical clock for LRU ordering
	// gone remembers the hashes of shape keys evicted for room, so a later
	// miss on one counts as evicted rather than cold. Cleared when it
	// outgrows 4×cap.
	gone map[uint64]struct{}
	seed maphash.Seed
}

// maxShapePrograms bounds one shape's pool of programs.
const maxShapePrograms = 4

// textEntry is one normalized text: what its runs must see of their own —
// plan, ORDER BY / LIMIT, binding — and the shape whose programs run it.
type textEntry struct {
	shape        *shapeEntry
	plan         algebra.Node
	sort         *exec.SortSpec
	binding      *exec.Binding
	catalogEpoch uint64
	cacheEpoch   uint64
	lastUsed     uint64
}

// shapeEntry owns the compiled programs of one shape.
type shapeEntry struct {
	key          string
	progs        []*pooledProg
	catalogEpoch uint64
	cacheEpoch   uint64
	lastUsed     uint64
	evicted      bool // its programs were dropped for room
}

// pooledProg is one program of a shape, locked while it runs. prep hands the
// running statement the program with its own plan and ORDER BY / LIMIT, so
// EXPLAIN, profiles and the scatter path never see another text's.
type pooledProg struct {
	mu   sync.Mutex
	prep Prepared
}

// release hands the program back after its run; a nil program (plan
// caching off) is a no-op.
func (pp *pooledProg) release() {
	if pp != nil {
		pp.mu.Unlock()
	}
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		texts: map[string]*textEntry{}, shapes: map[string]*shapeEntry{}, cap: capacity,
		gone: map[uint64]struct{}{}, seed: maphash.MakeSeed(),
	}
}

// planKey builds the text key: profile level, language tag, and the query
// text with runs of whitespace collapsed. No case folding — string literals
// are case-sensitive, and the parser already treats keywords uniformly.
func planKey(lang, query string, level profLevel) string {
	return "0123"[level:level+1] + lang + "\x00" + strings.Join(strings.Fields(query), " ")
}

// shapeKey builds the shape key of an optimized plan: profile level, the
// ORDER BY / LIMIT (absorbed into the program, so part of its shape) and the
// plan's fingerprint with params as typed slots.
func shapeKey(plan algebra.Node, params []*expr.Const, sort *exec.SortSpec, level profLevel) string {
	head := "0123"[level : level+1]
	if sort != nil {
		head += fmt.Sprint(sort.By, sort.Desc, sort.Limit)
	}
	return head + "\x00" + exec.ShapeKey(plan, params)
}

// current reports whether entries stamped with these epochs are still valid.
func current(catalogEpoch, cacheEpoch, wantCatalog, wantCache uint64) bool {
	return catalogEpoch == wantCatalog && cacheEpoch == wantCache
}

// acquire locks an idle program of the shape, or returns nil when all of
// them are running. The caller holds pc.mu.
func (sh *shapeEntry) acquire() *pooledProg {
	for _, pp := range sh.progs {
		if pp.mu.TryLock() {
			return pp
		}
	}
	return nil
}

// lookupText resolves a text key. A current text whose shape has an idle
// program returns it locked, with the text's binding installed (a text
// hit). Otherwise te is the current text entry when there is one — its plan
// can be compiled without the front end — and why is the reason to count
// if the statement ends up compiling.
func (pc *planCache) lookupText(key string, catalogEpoch, cacheEpoch uint64) (te *textEntry, pp *pooledProg, why obs.PlanMiss) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	te = pc.texts[key]
	if te == nil {
		return nil, nil, obs.PlanMissCold
	}
	if !current(te.catalogEpoch, te.cacheEpoch, catalogEpoch, cacheEpoch) {
		delete(pc.texts, key)
		return nil, nil, obs.PlanMissEpoch
	}
	pc.tick++
	te.lastUsed = pc.tick
	if te.shape.evicted {
		// Re-attach to the shape if another text has compiled it again.
		sh := pc.shapes[te.shape.key]
		if sh == nil || !current(sh.catalogEpoch, sh.cacheEpoch, catalogEpoch, cacheEpoch) {
			return te, nil, obs.PlanMissEvicted
		}
		te.shape = sh
	}
	te.shape.lastUsed = pc.tick
	if pp = te.shape.acquire(); pp == nil {
		return te, nil, obs.PlanMissBusy
	}
	if !pp.prep.Program.Install(te.binding) {
		// The idle program was compiled against other cache contents than
		// the one that derived the binding, both within one epoch stamp.
		pp.release()
		return te, nil, obs.PlanMissEpoch
	}
	pp.prep.Plan, pp.prep.Sort = te.plan, te.sort
	return te, pp, 0
}

// lookupShape returns an idle program of the shape key locked, or nil and
// the reason a compile is needed.
func (pc *planCache) lookupShape(key string, catalogEpoch, cacheEpoch uint64) (*pooledProg, *shapeEntry, obs.PlanMiss) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sh := pc.shapes[key]
	if sh == nil {
		if _, ok := pc.gone[maphash.String(pc.seed, key)]; ok {
			return nil, nil, obs.PlanMissEvicted
		}
		return nil, nil, obs.PlanMissCold
	}
	if !current(sh.catalogEpoch, sh.cacheEpoch, catalogEpoch, cacheEpoch) {
		pc.dropShape(sh)
		return nil, nil, obs.PlanMissEpoch
	}
	pc.tick++
	sh.lastUsed = pc.tick
	pp := sh.acquire()
	if pp == nil {
		return nil, sh, obs.PlanMissBusy
	}
	return pp, sh, 0
}

// storeProgram adds a freshly compiled program to its shape — creating or
// replacing the shape entry when needed — and returns it locked (the caller
// runs it, then releases). A program whose shape's pool is full comes back
// detached, locked all the same, so the caller's run/release sequence stays
// uniform; its shape entry is then nil. When nothing else is evictable
// (every other shape is running), the cache tolerates a transient overflow
// rather than blocking.
func (pc *planCache) storeProgram(key string, prog *exec.Program, catalogEpoch, cacheEpoch uint64) (*pooledProg, *shapeEntry) {
	pp := &pooledProg{prep: Prepared{Program: prog}}
	pp.mu.Lock()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.tick++
	sh := pc.shapes[key]
	if sh != nil && (sh.catalogEpoch > catalogEpoch || sh.cacheEpoch > cacheEpoch) {
		return pp, nil // a compile planned after this one is resident
	}
	if sh != nil && !current(sh.catalogEpoch, sh.cacheEpoch, catalogEpoch, cacheEpoch) {
		pc.dropShape(sh)
		sh = nil
	}
	if sh != nil && len(sh.progs) >= maxShapePrograms {
		return pp, nil
	}
	for pc.full() && pc.evict(sh) {
	}
	if sh == nil {
		sh = &shapeEntry{key: key, catalogEpoch: catalogEpoch, cacheEpoch: cacheEpoch}
		pc.shapes[key] = sh
		delete(pc.gone, maphash.String(pc.seed, key))
	}
	sh.lastUsed = pc.tick
	sh.progs = append(sh.progs, pp)
	pc.programs++
	return pp, sh
}

// storeText records a text's entry; a nil shape (its program was not kept)
// records nothing.
func (pc *planCache) storeText(key string, te *textEntry) {
	if te.shape == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.tick++
	te.lastUsed = pc.tick
	if _, exists := pc.texts[key]; !exists {
		for pc.full() && pc.evict(te.shape) {
		}
	}
	pc.texts[key] = te
}

// dropShape removes a shape and its programs. The caller holds pc.mu.
func (pc *planCache) dropShape(sh *shapeEntry) {
	if pc.shapes[sh.key] == sh {
		delete(pc.shapes, sh.key)
	}
	pc.programs -= len(sh.progs)
	sh.progs = nil
	sh.evicted = true
}

// full reports whether the text entries and programs fill the capacity.
// The caller holds pc.mu.
func (pc *planCache) full() bool { return len(pc.texts)+pc.programs >= pc.cap }

// evict makes room for one entry: it removes the least recently used text
// entry or, when it is older, the least recently used shape other than keep
// whose programs are all idle, remembering that shape's key. It returns
// false when nothing is evictable. The caller holds pc.mu.
func (pc *planCache) evict(keep *shapeEntry) bool {
	var lru string
	var oldest *textEntry
	for k, te := range pc.texts {
		if oldest == nil || te.lastUsed < oldest.lastUsed {
			lru, oldest = k, te
		}
	}
	var victim *shapeEntry
	for _, sh := range pc.shapes {
		if sh != keep && (victim == nil || sh.lastUsed < victim.lastUsed) && sh.idle() {
			victim = sh
		}
	}
	if oldest != nil && (victim == nil || oldest.lastUsed < victim.lastUsed) {
		delete(pc.texts, lru)
		return true
	}
	if victim == nil {
		return false
	}
	pc.dropShape(victim)
	if len(pc.gone) >= 4*pc.cap {
		clear(pc.gone)
	}
	pc.gone[maphash.String(pc.seed, victim.key)] = struct{}{}
	return true
}

// idle reports whether none of the shape's programs is running. The caller
// holds pc.mu, so no run can start meanwhile.
func (sh *shapeEntry) idle() bool {
	for _, pp := range sh.progs {
		if !pp.mu.TryLock() {
			return false
		}
		pp.mu.Unlock()
	}
	return true
}

// size reports the number of text entries and programs held (tests only).
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.texts) + pc.programs
}
