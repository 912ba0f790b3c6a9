// Prepared statements: POST /v1/prepare validates and compiles a query
// once, returns an opaque handle, and later /v1/query calls execute by
// handle. The handle registry stores only the (validated) query text. The
// compiled program lives in the engine's plan cache: its text level, keyed
// by normalized text, holds the statement's literals and what is derived
// from them, and its shape level owns the program, shared with every text
// that differs only in comparison literals; both are invalidated on
// catalog/cache epoch changes. So an execute-by-handle is a plan-cache hit
// that skips parse→optimize→compile, without the service holding programs
// that could go stale.
package server

import (
	"fmt"
	"sync"
	"time"
)

// preparedStmt is one registered handle.
type preparedStmt struct {
	Handle  string    `json:"handle"`
	Query   string    `json:"query"`
	Lang    string    `json:"lang"`
	Created time.Time `json:"created"`
	Uses    int64     `json:"uses"`

	lastUsed int64 // LRU clock value, guarded by the set's mutex
}

// preparedSet is a bounded LRU of prepared statements.
type preparedSet struct {
	mu    sync.Mutex
	cap   int
	seq   int64 // handle numbering
	clock int64 // LRU ticks
	stmts map[string]*preparedStmt
}

func newPreparedSet(capacity int) *preparedSet {
	if capacity < 1 {
		capacity = 1
	}
	return &preparedSet{cap: capacity, stmts: map[string]*preparedStmt{}}
}

// put registers a validated statement, evicting the least-recently-used
// handle when the set is full, and returns the new handle's record.
func (ps *preparedSet) put(query, lang string, now time.Time) preparedStmt {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.stmts) >= ps.cap {
		var lru *preparedStmt
		for _, s := range ps.stmts {
			if lru == nil || s.lastUsed < lru.lastUsed {
				lru = s
			}
		}
		delete(ps.stmts, lru.Handle)
	}
	ps.seq++
	ps.clock++
	st := &preparedStmt{
		Handle:   fmt.Sprintf("p-%d", ps.seq),
		Query:    query,
		Lang:     lang,
		Created:  now,
		lastUsed: ps.clock,
	}
	ps.stmts[st.Handle] = st
	return *st
}

// get resolves a handle, bumping its recency and use count.
func (ps *preparedSet) get(handle string) (preparedStmt, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st, ok := ps.stmts[handle]
	if !ok {
		return preparedStmt{}, false
	}
	ps.clock++
	st.lastUsed = ps.clock
	st.Uses++
	return *st, true
}

// drop removes a handle, reporting whether it existed.
func (ps *preparedSet) drop(handle string) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	_, ok := ps.stmts[handle]
	delete(ps.stmts, handle)
	return ok
}

// list snapshots every statement, most-recently-used first.
func (ps *preparedSet) list() []preparedStmt {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]preparedStmt, 0, len(ps.stmts))
	for _, s := range ps.stmts {
		out = append(out, *s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].lastUsed > out[j-1].lastUsed; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// len reports the number of registered handles.
func (ps *preparedSet) len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.stmts)
}
