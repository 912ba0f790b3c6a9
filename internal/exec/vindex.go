// Index-aware scan wiring: connects the optimizer's pushed-down predicates
// (algebra.Scan.Pushed) to the cache layer's zone maps and bitmap indexes.
//
// setupIndexHints runs during scan analysis and produces two closures on the
// scanInfo: zoneSkip, a window test the full-cache and binary drivers
// consult to skip 1024-row windows whose zone-map ranges cannot satisfy a
// pushed predicate, and credit, a run-time notification that feeds the
// adaptive index-selection policy (cache.Manager.CreditScan). tryBitmapFilter
// then replaces compare kernels in the vectorized filter cascade with a
// bitmap gather whenever a conjunct's column carries a bitmap index. The
// window tests and the bitmaps depend on the literals, so a binding supplies
// them per run (params.go).
//
// Both paths are purely an access-path change: the Select operators above the
// scan still evaluate their predicates, so a wrong skip or bitmap could only
// lose rows, never add them — and the zone-map/bitmap semantics match the
// kernels exactly (comparisons never match NULL).
package exec

import (
	"slices"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/expr"
	"proteus/internal/plugin"
	"proteus/internal/stats"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// lowerCmp maps an expression comparison operator onto the cache layer's
// operator vocabulary.
func lowerCmp(op expr.BinKind) (cache.CmpOp, bool) {
	switch op {
	case expr.OpEq:
		return cache.CmpEq, true
	case expr.OpNe:
		return cache.CmpNe, true
	case expr.OpLt:
		return cache.CmpLt, true
	case expr.OpLe:
		return cache.CmpLe, true
	case expr.OpGt:
		return cache.CmpGt, true
	case expr.OpGe:
		return cache.CmpGe, true
	}
	return 0, false
}

// lowerPred lowers a pushed conjunct to a cache predicate. The optimizer
// guarantees the constant is non-null and the operator a comparison, but the
// lowering re-checks both so a stale plan can only fall back, never misfire.
func lowerPred(op expr.BinKind, v types.Value) (cache.Pred, bool) {
	cop, ok := lowerCmp(op)
	if !ok || v.IsNull() {
		return cache.Pred{}, false
	}
	p := cache.Pred{Op: cop, Kind: v.Kind}
	switch v.Kind {
	case types.KindInt:
		p.I = v.I
	case types.KindFloat:
		p.F = v.F
	case types.KindString:
		p.S = v.S
	case types.KindBool:
		p.B = v.I != 0
	default:
		return cache.Pred{}, false
	}
	return p, true
}

// estimatePredSel estimates a pushed predicate's selectivity from the
// statistics store (uniform-range for inequalities, distinct-count for
// equality), falling back to the global default.
func estimatePredSel(st *stats.Store, dataset string, pp algebra.PushedPred) float64 {
	if st == nil {
		return stats.DefaultSelectivity
	}
	tbl, ok := st.Lookup(dataset)
	if !ok {
		return stats.DefaultSelectivity
	}
	switch pp.Op {
	case expr.OpEq:
		return tbl.SelEq(pp.Path)
	case expr.OpNe:
		return 1 - tbl.SelEq(pp.Path)
	case expr.OpLt, expr.OpLe:
		return tbl.SelLt(pp.Path, pp.V.AsFloat())
	case expr.OpGt, expr.OpGe:
		return tbl.SelGt(pp.Path, pp.V.AsFloat())
	}
	return stats.DefaultSelectivity
}

// setupIndexHints matches the scan's pushed conjuncts against its cached
// fields — and, for the rest, against the plug-in's own zone maps when it
// keeps any (plugin.ZoneMapper: binary columns) — and installs the zoneSkip
// and credit closures. The first clone's compile registers the scan site and
// tells the index policy about the conjuncts before any filter compiles, so
// an index IndexOn builds now serves this very program; the clones compile
// one logical scan, not N.
func (c *Compiler) setupIndexHints(si *scanInfo) {
	zm, _ := si.in.(plugin.ZoneMapper)
	if len(si.s.Pushed) == 0 || (len(si.cachedFields) == 0 && zm == nil) {
		return
	}
	site, fresh := c.bind.scanSite(si.s)
	if fresh {
		site.targets = make([]siteTarget, len(si.s.Pushed))
		for i, pp := range si.s.Pushed {
			if _, ok := lowerPred(pp.Op, pp.V); !ok {
				continue
			}
			t := &site.targets[i]
			for _, cf := range si.cachedFields {
				if cf.path == pp.Path {
					t.blk = cf.block
					break
				}
			}
			if t.blk == nil && zm != nil {
				t.zones = zm.ZoneMaps(si.ds, pp.Path)
			}
		}
		site.admit(c.env.Caches, c.env.Stats, si.s.Pushed)
	}
	var credited []string
	usable := false
	for i, t := range site.targets {
		usable = usable || t.blk != nil || t.zones != nil
		if t.blk != nil && !slices.Contains(credited, si.s.Pushed[i].Path) {
			credited = append(credited, si.s.Pushed[i].Path)
		}
	}
	if !usable {
		return
	}
	caches := c.env.Caches
	// Per-query attribution: skips land on this worker's private counter
	// cell alongside the manager's cumulative count.
	var skips *int64
	if oc := c.opCtr(si.s); oc != nil {
		skips = &oc.zoneSkips
	}
	si.zoneSkip = func(lo, hi int64) bool {
		for _, ck := range site.checks {
			if (ck.bm != nil && !ck.bm.AnyRange(lo, hi)) || (ck.z != nil && !ck.z.CanMatchWindow(lo, hi, ck.p)) {
				caches.CountZoneSkips(1)
				if skips != nil {
					*skips++
				}
				return true
			}
		}
		return false
	}
	if (c.shared == nil || c.workerID == 0) && len(credited) > 0 {
		dataset := si.s.Dataset
		si.credit = func() {
			for _, p := range credited {
				caches.CreditScan(dataset, p)
			}
		}
	}
}

// compileSegFilter compiles one Select predicate of a vectorized segment
// into one filter per top-level conjunct, so each can independently take
// the bitmap path (and, predicate-first, load only the columns it reads);
// everything else falls through to the general compare kernels. The
// conjuncts on one indexed column share one bitmap site of sites: the first
// runs the gather, the others are no-ops.
func (c *Compiler) compileSegFilter(si *scanInfo, e expr.Expr, sites *[]selectSite) ([]expr.Expr, []vecFilter, error) {
	conj := expr.SplitConjuncts(e)
	filters := make([]vecFilter, len(conj))
	for i, x := range conj {
		if f, ok := c.tryBitmapFilter(si, x, sites); ok {
			filters[i] = f
			continue
		}
		if f, ok := c.tryDictFilter(si, x); ok {
			filters[i] = f
			continue
		}
		f, err := c.compileVecFilter(x)
		if err != nil {
			return nil, nil, err
		}
		filters[i] = f
	}
	return conj, filters, nil
}

// selectSite is a bitmap site of the segment being compiled; fresh when
// this compile created it and so fills in its conjuncts.
type selectSite struct {
	site  *bitmapSite
	fresh bool
}

// indexedBlockFor resolves a column expression to the scan's cached block
// carrying a bitmap index, or nil when the column is not indexed.
func (c *Compiler) indexedBlockFor(si *scanInfo, col expr.Expr) (*cache.Block, string) {
	root, path, ok := expr.PathOf(col)
	if !ok || root != si.s.Binding || len(path) == 0 {
		return nil, ""
	}
	pk := pathKey(path)
	for i := range si.cachedFields {
		if si.cachedFields[i].path == pk && si.cachedFields[i].block.Index() != nil {
			return si.cachedFields[i].block, pk
		}
	}
	return nil, ""
}

// bitmapGather compiles a bitmap site into the zero-alloc selection-vector
// kernel shared by the bitmap and dictionary filter paths. It reads the
// site's bitmap once per batch, so a new binding takes effect on the next
// run.
func (c *Compiler) bitmapGather(si *scanInfo, site *bitmapSite) vecFilter {
	caches := c.env.Caches
	// Per-query attribution: hits land on this worker's private counter cell
	// alongside the manager's cumulative count.
	var hits *int64
	if oc := c.opCtr(si.s); oc != nil {
		hits = &oc.idxHits
	}
	return func(b *vbuf.Batch) {
		caches.CountIndexHit()
		if hits != nil {
			*hits++
		}
		bm := site.bm
		if b.FullSel() {
			// Whole batch still selected: emit the bitmap window directly.
			b.Sel = bm.FillSel(b.Base, b.N, b.SelScratch())
			return
		}
		out, n := b.SelScratch(), 0
		base := b.Base
		for _, j := range b.Sel {
			if bm.Get(base + int64(j)) {
				out[n] = j
				n++
			}
		}
		b.Sel = out[:n]
	}
}

// tryBitmapFilter recognizes a column-vs-constant comparison whose column is
// served from a cache block carrying a bitmap index the comparison can
// consult, and compiles it down to a selection-vector gather over the
// bitmap its site binds per literal (params.go): the lookup (bitmap ORs
// over sorted keys) happens once per binding, and the per-batch kernel
// allocates nothing. A second conjunct on the same column joins the first
// one's site and compiles to a no-op. Mixed int/float comparisons and
// operators the index cannot answer fall back to the compare kernels.
func (c *Compiler) tryBitmapFilter(si *scanInfo, e expr.Expr, sites *[]selectSite) (vecFilter, bool) {
	x, ok := e.(*expr.BinOp)
	if !ok || !x.Op.IsComparison() {
		return nil, false
	}
	op, col, k := x.Op, x.L, x.R
	if _, isConst := x.L.(*expr.Const); isConst {
		col, k = x.R, x.L
		op = flipCmp(op)
	}
	kc, isConst := k.(*expr.Const)
	if !isConst {
		return nil, false
	}
	blk, pk := c.indexedBlockFor(si, col)
	if blk == nil {
		return nil, false
	}
	p, ok := lowerPred(op, kc.V)
	if !ok || !blk.Index().Answers(p.Op, p.Kind) {
		return nil, false
	}
	c.note("scan %s: filter %s served by bitmap index on %s", si.s.Dataset, e, pk)
	sp := sitePred{op: op, slot: slices.Index(c.bind.params, kc), v: kc.V}
	for _, s := range *sites {
		if s.site.blk == blk {
			if s.fresh {
				s.site.preds = append(s.site.preds, sp)
			}
			return noopFilter, true
		}
	}
	site, fresh := c.bind.filterSite(e, blk)
	if fresh {
		site.preds = append(site.preds, sp)
	}
	*sites = append(*sites, selectSite{site, fresh})
	return c.bitmapGather(si, site), true
}

// tryDictFilter serves a LIKE predicate over a dictionary-encoded indexed
// string column by evaluating the pattern once per distinct dictionary
// entry and ORing the matching codes' bitmaps: the per-row work collapses
// to the same zero-alloc bitmap gather the equality path uses, with
// Dict.Len() substring tests paid once at compile time.
func (c *Compiler) tryDictFilter(si *scanInfo, e expr.Expr) (vecFilter, bool) {
	like, ok := e.(*expr.Like)
	if !ok {
		return nil, false
	}
	blk, pk := c.indexedBlockFor(si, like.E)
	if blk == nil {
		return nil, false
	}
	bm, ok := blk.Index().MatchStrings(like.Match)
	if !ok {
		return nil, false
	}
	c.note("scan %s: filter %s served by dictionary index on %s (%d distinct)",
		si.s.Dataset, e, pk, blk.Index().Dict().Len())
	return c.bitmapGather(si, &bitmapSite{bm: bm}), true
}
