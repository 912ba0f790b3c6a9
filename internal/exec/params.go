// Parameterized programs: a comparison literal is a bind-time value, not a
// compile-time constant. The engine shares one compiled program among every
// query text of the same shape (ShapeKey): the optimized plan with each
// column-vs-constant comparison literal replaced by a typed slot.
//
//   - Compiled closures read such literals from the program's frame — one
//     paramCell per slot — instead of capturing them.
//   - Everything a program derives from its literals lives in a Binding: the
//     frame's values, each scan's zone-map and bitmap checks, and the bitmap
//     of each vectorized filter an index serves. Bind derives a text's
//     binding once; Install swaps it in before a run and allocates nothing.
//
// A literal that feeds a compile-time decision stays verbatim in the shape:
// LIKE patterns, LIMIT, IN lists (disjunctions), NULL and bool constants,
// join predicates, and every literal under a join's build side, whose
// fingerprint keys reused build sides (join.go). A slot carries its literal's
// kind, so an int and a float literal never share a kernel.
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/expr"
	"proteus/internal/stats"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// ParamsOf lists plan's bind-time literals in slot order: each non-null int,
// float or string constant compared with a column in a top-level conjunct of
// a Select, Unnest, Reduce or Nest predicate, outside join build sides.
func ParamsOf(plan algebra.Node) []*expr.Const {
	params, _ := bindInputs(plan, false)
	return params
}

// bindInputs walks plan once for what a binding reads of it: its params
// and, when scans is set, its scans in algebra.Scans order. The walk
// allocates only the two result slices.
func bindInputs(plan algebra.Node, scans bool) (params []*expr.Const, scanList []*algebra.Scan) {
	var visit func(n algebra.Node, build bool)
	visit = func(n algebra.Node, build bool) {
		var pred expr.Expr
		var child algebra.Node
		switch x := n.(type) {
		case *algebra.Scan:
			if scans {
				scanList = append(scanList, x)
			}
			return
		case *algebra.Select:
			pred, child = x.Pred, x.Child
		case *algebra.Unnest:
			pred, child = x.Pred, x.Child
		case *algebra.Reduce:
			pred, child = x.Pred, x.Child
		case *algebra.Nest:
			pred, child = x.Pred, x.Child
		case *algebra.Join:
			visit(x.Left, build)
			visit(x.Right, true) // the build side
			return
		}
		if !build {
			params = appendParams(params, pred)
		}
		if child != nil {
			visit(child, build)
		}
	}
	visit(plan, false)
	return params, scanList
}

// appendParams appends the bind-time literals of e's top-level conjuncts.
func appendParams(out []*expr.Const, e expr.Expr) []*expr.Const {
	b, ok := e.(*expr.BinOp)
	if !ok {
		return out
	}
	if b.Op == expr.OpAnd {
		return appendParams(appendParams(out, b.L), b.R)
	}
	if !b.Op.IsComparison() {
		return out
	}
	col, k := b.L, b.R
	if _, isConst := col.(*expr.Const); isConst {
		col, k = k, col
	}
	kc, isConst := k.(*expr.Const)
	if !isConst || !isPath(col) || slices.Contains(out, kc) {
		return out
	}
	switch kc.V.Kind {
	case types.KindInt, types.KindFloat, types.KindString:
		out = append(out, kc)
	}
	return out
}

// isPath reports whether expr.PathOf accepts e, without building the path.
func isPath(e expr.Expr) bool {
	for {
		switch x := e.(type) {
		case *expr.Ref:
			return true
		case *expr.FieldAcc:
			e = x.Base
		default:
			return false
		}
	}
}

// ShapeKey renders plan's fingerprint with params[i] shown as its typed slot
// "$i+1:kind": plans with equal shape keys compile to interchangeable
// programs, which differ only in their bindings.
func ShapeKey(plan algebra.Node, params []*expr.Const) string {
	if len(params) == 0 {
		return plan.Fingerprint()
	}
	return shapeOf(plan, params).Fingerprint()
}

// slotRef stands for a bind-time literal in a shape key.
type slotRef struct {
	slot int
	kind types.Kind
}

func (s slotRef) String() string { return "$" + strconv.Itoa(s.slot+1) + ":" + s.kind.String() }

// shapeOf copies the operators of n whose predicates hold params, with each
// param replaced by its slotRef. Only rendered, never compiled.
func shapeOf(n algebra.Node, params []*expr.Const) algebra.Node {
	switch x := n.(type) {
	case *algebra.Select:
		return &algebra.Select{Pred: substParams(x.Pred, params), Child: shapeOf(x.Child, params)}
	case *algebra.Unnest:
		u := *x
		u.Pred, u.Child = substParams(x.Pred, params), shapeOf(x.Child, params)
		return &u
	case *algebra.Reduce:
		r := *x
		r.Pred, r.Child = substParams(x.Pred, params), shapeOf(x.Child, params)
		return &r
	case *algebra.Nest:
		g := *x
		g.Pred, g.Child = substParams(x.Pred, params), shapeOf(x.Child, params)
		return &g
	case *algebra.Join:
		j := *x
		j.Left = shapeOf(x.Left, params)
		return &j
	}
	return n
}

func substParams(e expr.Expr, params []*expr.Const) expr.Expr {
	switch x := e.(type) {
	case *expr.Const:
		if i := slices.Index(params, x); i >= 0 {
			return slotRef{i, x.V.Kind}
		}
	case *expr.BinOp:
		l, r := substParams(x.L, params), substParams(x.R, params)
		if l != x.L || r != x.R {
			return &expr.BinOp{Op: x.Op, L: l, R: r}
		}
	}
	return e
}

// paramCell is one literal as the compiled closures read it, pre-converted
// for the int, float and string kernels.
type paramCell struct {
	i int64
	f float64
	s string
}

func (p *paramCell) set(v types.Value) { p.i, p.f, p.s = v.AsInt(), v.AsFloat(), v.S }

// constCell returns the frame cell of a bind-time literal, or a cell of its
// own for a literal that stays in the shape.
func (c *Compiler) constCell(k *expr.Const) *paramCell {
	if i := slices.Index(c.bind.params, k); i >= 0 {
		return &c.bind.cells[i]
	}
	cell := &paramCell{}
	cell.set(k.V)
	return cell
}

// Binding is what a program derives from one text's literals: the frame's
// values, each scan's zone-map and bitmap checks, and the bitmap of each
// vectorized filter an index serves, plus the text's plan and estimates for
// its profiles. It is immutable once derived, so any program of its shape
// can install it.
type Binding struct {
	layout string // the deriving program's sites (binder.layout)
	cells  []paramCell
	checks [][]zoneCheck
	bms    []*cache.Bitmap
	plan   algebra.Node
	est    map[algebra.Node]float64
}

// errShape reports a plan that does not have the program's shape.
var errShape = errors.New("exec: plan does not have the program's shape")

// binder is a program's bind state, shared by all its pipeline clones: the
// frame the closures read and the sites whose derived state a binding
// replaces. Sites register in the first clone's compile order, which every
// compile of the same shape repeats, so a binding fits each program of it.
type binder struct {
	plan    algebra.Node // the compiled plan
	params  []*expr.Const
	cells   []paramCell
	scans   []*scanSite
	filters []*bitmapSite
	caches  *cache.Manager
	stats   *stats.Store
	bound   *Binding
	// layout renders the sites and the blocks they consult, set once the
	// program is compiled. Programs of one shape compiled against other
	// cache contents have other layouts and cannot trade bindings.
	layout string
}

func newBinder(plan algebra.Node, env *Env) *binder {
	params := ParamsOf(plan)
	b := &binder{plan: plan, params: params, cells: make([]paramCell, len(params)), caches: env.Caches, stats: env.Stats}
	for i, k := range params {
		b.cells[i].set(k.V)
	}
	return b
}

// zoneCheck is one window test of a scan: an index bitmap of a column (all
// its pushed conjuncts at once), or one pushed conjunct against zone maps.
type zoneCheck struct {
	z  *cache.ZoneMaps
	p  cache.Pred
	bm *cache.Bitmap
}

// scanSite is one scan's pushed conjuncts as the program compiled them: per
// conjunct, the cached block or the plug-in zone maps it may consult. The
// zone-skip closure reads checks, which a binding replaces.
type scanSite struct {
	node    *algebra.Scan
	scan    int          // position in algebra.Scans of the compiled plan
	targets []siteTarget // parallel to Scan.Pushed
	checks  []zoneCheck
}

type siteTarget struct {
	blk   *cache.Block    // the conjunct's column is served from this block
	zones *cache.ZoneMaps // else, the plug-in's own zone maps of it
}

// scanSite returns the site of scan s, and whether this call created it
// (the first clone's compile, which fills it in).
func (b *binder) scanSite(s *algebra.Scan) (*scanSite, bool) {
	for _, site := range b.scans {
		if site.node == s {
			return site, false
		}
	}
	site := &scanSite{node: s, scan: slices.Index(algebra.Scans(b.plan), s)}
	b.scans = append(b.scans, site)
	return site, true
}

// fits reports whether scans, a plan's scans in algebra.Scans order, has
// this site's scan with as many pushed conjuncts as it compiled.
func (s *scanSite) fits(scans []*algebra.Scan) bool {
	return s.scan >= 0 && s.scan < len(scans) && len(scans[s.scan].Pushed) == len(s.targets)
}

// admit tells the index policy which cached columns the pushed conjuncts
// touch, with the estimated selectivity of each column's first conjunct.
// Under IndexOn it may build an index right away.
func (s *scanSite) admit(caches *cache.Manager, st *stats.Store, pushed []algebra.PushedPred) {
	for i, t := range s.targets {
		if t.blk != nil && !slices.ContainsFunc(s.targets[:i], func(o siteTarget) bool { return o.blk == t.blk }) {
			caches.NotePredicate(s.node.Dataset, pushed[i].Path, estimatePredSel(st, s.node.Dataset, pushed[i]))
		}
	}
}

// derive computes the scan's window tests for its pushed conjuncts: one
// bitmap per indexed column, from all of its conjuncts at once, then one
// zone-map test per conjunct. The bitmap is exact where a zone range is
// conservative, so it goes first.
func (s *scanSite) derive(pushed []algebra.PushedPred, memo *bitmapMemo) []zoneCheck {
	var checks []zoneCheck
	for i, t := range s.targets {
		if t.blk == nil || t.blk.Index() == nil || slices.ContainsFunc(s.targets[:i], func(o siteTarget) bool { return o.blk == t.blk }) {
			continue
		}
		ix := t.blk.Index()
		var preds []cache.Pred
		for j := i; j < len(s.targets); j++ {
			if s.targets[j].blk != t.blk {
				continue
			}
			if p, ok := lowerPred(pushed[j].Op, pushed[j].V); ok && ix.Answers(p.Op, p.Kind) {
				preds = append(preds, p)
			}
		}
		if bm := memo.lookup(t.blk, preds); bm != nil {
			checks = append(checks, zoneCheck{bm: bm})
		}
	}
	for i, t := range s.targets {
		z := t.zones
		if t.blk != nil {
			z = t.blk.Zones
		}
		if p, ok := lowerPred(pushed[i].Op, pushed[i].V); ok && z != nil {
			checks = append(checks, zoneCheck{z: z, p: p})
		}
	}
	return checks
}

// bitmapSite is one vectorized filter an index serves: the conjuncts on one
// indexed column of a segment's Select chain (of one Select, in a profiled
// program), answered by one bitmap.
type bitmapSite struct {
	key   expr.Expr // the first conjunct
	blk   *cache.Block
	preds []sitePred
	bm    *cache.Bitmap
}

// sitePred is one conjunct of a bitmap site, column on the left.
type sitePred struct {
	op   expr.BinKind
	slot int         // frame slot of the literal; -1 when it stays in the shape
	v    types.Value // the literal when slot is -1
}

// filterSite returns the bitmap site keyed by conjunct x, and whether this
// call created it.
func (b *binder) filterSite(x expr.Expr, blk *cache.Block) (*bitmapSite, bool) {
	for _, site := range b.filters {
		if site.key == x {
			return site, false
		}
	}
	site := &bitmapSite{key: x, blk: blk}
	b.filters = append(b.filters, site)
	return site, true
}

func (f *bitmapSite) derive(vals []types.Value, memo *bitmapMemo) *cache.Bitmap {
	preds := make([]cache.Pred, 0, len(f.preds))
	for _, sp := range f.preds {
		v := sp.v
		if sp.slot >= 0 {
			v = vals[sp.slot]
		}
		p, _ := lowerPred(sp.op, v) // kinds are fixed by the shape; compile checked them
		preds = append(preds, p)
	}
	return memo.lookup(f.blk, preds)
}

// bitmapMemo shares bitmaps within one derivation: a scan's pushed
// conjuncts on a column and the vectorized filter over the same conjuncts
// resolve the index once, in whatever order each lists them.
type bitmapMemo []memoEntry

type memoEntry struct {
	blk   *cache.Block
	preds []cache.Pred
	bm    *cache.Bitmap
}

func (m *bitmapMemo) lookup(blk *cache.Block, preds []cache.Pred) *cache.Bitmap {
	ix := blk.Index()
	if ix == nil || len(preds) == 0 {
		return nil
	}
	slices.SortFunc(preds, func(a, b cache.Pred) int {
		return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.I, b.I), cmp.Compare(a.F, b.F), cmp.Compare(a.S, b.S))
	})
	for _, e := range *m {
		if e.blk == blk && slices.Equal(e.preds, preds) {
			return e.bm
		}
	}
	bm, ok := ix.LookupAll(preds)
	if !ok {
		bm = nil
	}
	*m = append(*m, memoEntry{blk, preds, bm})
	return bm
}

// derive computes plan's binding; plan must have the compiled plan's shape,
// and consts and scans are its bindInputs.
func (b *binder) derive(plan algebra.Node, consts []*expr.Const, scans []*algebra.Scan, est map[algebra.Node]float64) (*Binding, error) {
	if len(consts) != len(b.params) {
		return nil, errShape
	}
	vals := make([]types.Value, len(consts))
	bd := &Binding{layout: b.layout, cells: make([]paramCell, len(consts)), plan: plan, est: est}
	for i, k := range consts {
		if k.V.Kind != b.params[i].V.Kind {
			return nil, errShape
		}
		vals[i] = k.V
		bd.cells[i].set(k.V)
	}
	var memo bitmapMemo
	if len(b.scans) > 0 {
		bd.checks = make([][]zoneCheck, len(b.scans))
		for i, s := range b.scans {
			if !s.fits(scans) {
				return nil, errShape
			}
			bd.checks[i] = s.derive(scans[s.scan].Pushed, &memo)
		}
	}
	if len(b.filters) > 0 {
		bd.bms = make([]*cache.Bitmap, len(b.filters))
		for i, f := range b.filters {
			if bd.bms[i] = f.derive(vals, &memo); bd.bms[i] == nil {
				return nil, errShape
			}
		}
	}
	return bd, nil
}

// install makes bd current; a no-op when it already is.
func (b *binder) install(bd *Binding) {
	if b.bound == bd {
		return
	}
	copy(b.cells, bd.cells)
	for i, s := range b.scans {
		s.checks = bd.checks[i]
	}
	for i, f := range b.filters {
		f.bm = bd.bms[i]
	}
	b.bound = bd
}

// Bind derives and installs the binding of plan, a plan of this program's
// shape (ShapeKey): it replaces exec.Compile when only literals changed. It
// first tells the index policy about plan's pushed literals, as a compile
// does. est, when non-nil, is plan's cardinality estimates for profiles. Bind
// must not run concurrently with the program.
func (p *Program) Bind(plan algebra.Node, est map[algebra.Node]float64) (*Binding, error) {
	b := p.bind
	consts, scans := bindInputs(plan, len(b.scans) > 0)
	for _, s := range b.scans {
		if !s.fits(scans) {
			return nil, errShape
		}
		s.admit(b.caches, b.stats, scans[s.scan].Pushed)
	}
	bd, err := b.derive(plan, consts, scans, est)
	if err != nil {
		return nil, err
	}
	b.install(bd)
	return bd, nil
}

// Install makes a binding that Bind derived on a program of the same shape
// current, without allocating; a no-op when it already is. It reports false,
// installing nothing, when the binding's program was compiled against other
// cache contents (blocks, indexes) than this one. It must not run
// concurrently with the program.
func (p *Program) Install(bd *Binding) bool {
	if bd.layout != p.bind.layout {
		return false
	}
	p.bind.install(bd)
	return true
}

// Binding returns the program's current binding.
func (p *Program) Binding() *Binding { return p.bind.bound }

// bindInitial fixes the program's layout, then derives and installs the
// compiled plan's own binding.
func (b *binder) bindInitial(env *Env) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", len(b.cells))
	for _, s := range b.scans {
		fmt.Fprintf(&sb, "|%d", s.scan)
		for _, t := range s.targets {
			fmt.Fprintf(&sb, ",%p/%p", t.blk, t.zones)
		}
	}
	for _, f := range b.filters {
		fmt.Fprintf(&sb, "|%p:%v", f.blk, f.preds)
	}
	b.layout = sb.String()
	var est map[algebra.Node]float64
	if env.Profile != nil {
		est = env.Profile.Estimates
	}
	consts, scans := bindInputs(b.plan, len(b.scans) > 0)
	bd, err := b.derive(b.plan, consts, scans, est)
	if err != nil {
		return err
	}
	b.install(bd)
	return nil
}

// noopFilter keeps a conjunct whose bitmap site another conjunct answers.
func noopFilter(*vbuf.Batch) {}
