package sparql

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// Plan is a query compiled against one store: variables resolved to
// integer slots, constants to dictionary IDs, filters to slot-addressed
// closures pushed down to the earliest pattern that binds them, and the
// basic graph pattern to a streaming rdf.BGPPlan with a cardinality-
// estimated join order. Compile once (plans are cheap but not free — the
// planner probes index range sizes), execute many: a Plan is immutable
// and safe for concurrent Execute calls. Plans embed dictionary IDs, so
// a plan compiled before a store mutation stays correct but may mark
// newly inserted constants as absent; cache plans keyed on the store
// version (see geostore's plan cache).
type Plan struct {
	st *rdf.Store
	q  *Query

	slots    map[string]int
	width    int
	seedSlot int // slot of opt.SeedVar, -1 when unseeded
	bgp      *rdf.BGPPlan

	vars      []string // effective projection (copied, never aliases q.Vars)
	projSlots []int    // slot per projection var, -1 when not in the BGP
	orderSlot int      // slot ordering applies to, -1 = no reordering needed

	// aggregate compilation
	groupSlot int   // slot of GROUP BY var, -1 when ungrouped or unbound
	aggSlots  []int // per aggregate: countStar, countNever, or a slot
	aggregate bool

	parallel int   // intended execution degree (Explain annotation)
	skipped  []int // filter indexes enforced outside the plan (for Explain)
}

const (
	countStar  = -2 // COUNT(*): every row counts
	countNever = -1 // COUNT(?v) with ?v outside the BGP: never bound
)

// Refiner is a pushed-down predicate over a single variable's dictionary
// ID, used by spatially indexed stores to refine R-tree candidates inside
// the pipeline instead of after it.
type Refiner struct {
	Var   string
	Label string
	Pred  func(rdf.ID) bool
}

// JoinProbe wires one variable-variable spatial join into the plan: an
// index-backed candidate generator between two geometry variables. The
// planner inserts a probe step as soon as one side's slot is bound; the
// executor then enumerates exact candidates for the other side instead
// of the cartesian product a plain filter would force.
type JoinProbe struct {
	// VarA and VarB are the two joined variables.
	VarA, VarB string
	// Candidates streams the IDs for the unbound side that satisfy the
	// join predicate exactly, given the bound side's ID (aBound reports
	// whether VarA is the bound side). It must stop when yield returns
	// false.
	Candidates func(bound rdf.ID, aBound bool, yield func(rdf.ID) bool)
	// Check tests the predicate when both sides are already bound.
	Check func(a, b rdf.ID) bool
	// Label names the join in Explain output.
	Label string
}

// PlanOpts tunes compilation for seeded (spatially accelerated)
// evaluation. The zero value compiles a plain plan.
type PlanOpts struct {
	// SeedVar names a variable pre-bound by every seed row.
	SeedVar string
	// SeedsSorted promises seed rows sorted ascending by SeedVar's ID,
	// enabling merge joins against the seed stream.
	SeedsSorted bool
	// SkipFilters marks filter indexes fully enforced by the caller
	// (e.g. exclusive spatial filters answered by the R-tree seed, or
	// exclusive spatial joins answered by an index probe).
	SkipFilters map[int]bool
	// Refiners are extra per-variable predicates pushed into the
	// pipeline at the variable's binding step.
	Refiners []Refiner
	// Probes are index spatial joins between two variables.
	Probes []JoinProbe
	// Parallel is the morsel-driven execution degree the plan's owner
	// intends to run it at (annotated by Explain as workers=N). It does
	// not change the compiled plan — parallelism is an execution-time
	// property (see ExecuteParallelSeeded) — so plan caches keyed on
	// query text and store version stay valid.
	Parallel int
}

// CompilePlan compiles q against st.
func CompilePlan(st *rdf.Store, q *Query, opt PlanOpts) (*Plan, error) {
	p := &Plan{st: st, q: q, slots: map[string]int{}, seedSlot: -1, orderSlot: -1, groupSlot: -1}

	slotOf := func(v string) int {
		if sl, ok := p.slots[v]; ok {
			return sl
		}
		sl := p.width
		p.slots[v] = sl
		p.width++
		return sl
	}
	if opt.SeedVar != "" {
		p.seedSlot = slotOf(opt.SeedVar)
	}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			slotOf(v)
		}
	}

	// Compile filters to slot closures. A filter referencing a variable
	// outside the BGP can never evaluate (unbound-variable error rejects
	// the row in SPARQL semantics), which the planner models as an
	// always-false predicate on the last step.
	var filters []rdf.PlanFilter
	for i, f := range q.Filters {
		if opt.SkipFilters[i] {
			p.skipped = append(p.skipped, i)
			continue
		}
		filters = append(filters, p.compileFilter(f))
	}
	for _, r := range opt.Refiners {
		sl, ok := p.slots[r.Var]
		if !ok {
			// The refined variable is outside the BGP: like the legacy
			// path's missing-binding check, nothing survives.
			pred := func(rdf.Row) bool { return false }
			filters = append(filters, rdf.PlanFilter{Pred: pred, Label: r.Label + " (unbound)"})
			continue
		}
		pred, slot := r.Pred, sl
		filters = append(filters, rdf.PlanFilter{
			Slots: []int{slot},
			//eevet:hotpath
			Pred:  func(row rdf.Row) bool { return pred(row[slot]) },
			Label: r.Label,
		})
	}

	bgpOpt := rdf.BGPOptions{SortedSlot: -1, Filters: filters}
	for _, jp := range opt.Probes {
		slA, okA := p.slots[jp.VarA]
		slB, okB := p.slots[jp.VarB]
		if !okA || !okB {
			// A join variable outside the BGP can never bind: legacy
			// evaluation errors (and rejects) on every row.
			missing := jp.VarA
			if okA {
				missing = jp.VarB
			}
			bgpOpt.Filters = append(bgpOpt.Filters, rdf.PlanFilter{
				Pred:  func(rdf.Row) bool { return false },
				Label: jp.Label + " (?" + missing + " unbound: rejects all)",
			})
			continue
		}
		bgpOpt.Probes = append(bgpOpt.Probes, rdf.PlanProbe{
			SlotA: slA, SlotB: slB,
			Candidates: jp.Candidates,
			Check:      jp.Check,
			Label:      jp.Label,
		})
	}
	if p.seedSlot >= 0 {
		bgpOpt.SeedSlots = []int{p.seedSlot}
		if opt.SeedsSorted {
			bgpOpt.SortedSlot = p.seedSlot
		}
	}
	p.bgp = st.PlanBGP(q.Patterns, p.slots, p.width, bgpOpt)
	p.parallel = opt.Parallel

	p.compileProjection()
	return p, nil
}

// compileProjection resolves the effective projection, aggregates and
// ORDER BY against the slot table.
func (p *Plan) compileProjection() {
	q := p.q
	if len(q.Aggregates) > 0 {
		p.aggregate = true
		if q.GroupBy != "" {
			p.vars = append(p.vars, q.GroupBy)
			if sl, ok := p.slots[q.GroupBy]; ok {
				p.groupSlot = sl
			}
		}
		for _, a := range q.Aggregates {
			p.vars = append(p.vars, a.As)
			switch {
			case a.Var == "":
				p.aggSlots = append(p.aggSlots, countStar)
			default:
				if sl, ok := p.slots[a.Var]; ok {
					p.aggSlots = append(p.aggSlots, sl)
				} else {
					p.aggSlots = append(p.aggSlots, countNever)
				}
			}
		}
		return
	}
	// Defensive copy: q may be shared (parsed once, cached); appending to
	// q.Vars in the SELECT * path could otherwise scribble on it.
	p.vars = append([]string(nil), q.Vars...)
	if q.Star {
		seen := map[string]bool{}
		for _, tp := range q.Patterns {
			for _, v := range tp.Vars() {
				if !seen[v] {
					seen[v] = true
					p.vars = append(p.vars, v)
				}
			}
		}
	}
	p.projSlots = make([]int, len(p.vars))
	inProj := false
	for i, v := range p.vars {
		if sl, ok := p.slots[v]; ok {
			p.projSlots[i] = sl
		} else {
			p.projSlots[i] = -1
		}
		if v == q.OrderBy {
			inProj = true
		}
	}
	// ORDER BY on a variable outside the projection (or outside the BGP)
	// compares empty keys everywhere: a stable no-op the executor skips,
	// which also re-enables the LIMIT short-circuit.
	if q.OrderBy != "" && inProj {
		if sl, ok := p.slots[q.OrderBy]; ok {
			p.orderSlot = sl
		}
	}
}

// SlotOf returns the slot of a variable and whether it exists in the
// plan.
func (p *Plan) SlotOf(v string) (int, bool) {
	sl, ok := p.slots[v]
	return sl, ok
}

// SeedRows builds sorted seed rows binding the plan's SeedVar slot to
// each ID. The ids slice is sorted in place (ascending), satisfying the
// SeedsSorted promise; rows share one backing allocation.
func (p *Plan) SeedRows(ids []rdf.ID) []rdf.Row {
	if p.seedSlot < 0 || len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	backing := make([]rdf.ID, p.width*len(ids))
	rows := make([]rdf.Row, len(ids))
	for i, id := range ids {
		row := backing[i*p.width : (i+1)*p.width : (i+1)*p.width]
		row[p.seedSlot] = id
		rows[i] = row
	}
	return rows
}

// Execute evaluates the plan from the single empty row.
func (p *Plan) Execute() (*Results, error) { return p.ExecuteSeeded(nil) }

// ExecuteSeeded evaluates the plan from the given seed rows (see
// SeedRows). Execution streams: DISTINCT deduplicates on encoded slot
// tuples, LIMIT without ORDER BY stops the pipeline early, aggregates
// fold rows into group counters without materializing solutions, and
// ORDER BY sorts on keys computed once per row.
func (p *Plan) ExecuteSeeded(seeds []rdf.Row) (*Results, error) {
	return p.executeSeededStats(seeds, nil)
}

// executeSeededStats is ExecuteSeeded with an optional executor stats
// sink (the EXPLAIN ANALYZE path; see ExecuteAnalyzed).
func (p *Plan) executeSeededStats(seeds []rdf.Row, stats *rdf.RunStats) (*Results, error) {
	if p.aggregate {
		return p.executeAggregates(seeds, stats)
	}
	if p.orderSlot >= 0 {
		return p.executeOrdered(seeds, stats), nil
	}
	q := p.q
	res := NewResults(p.vars, p.st.Dict())
	distinct := p.distinctFilter()
	limit := q.Limit
	skip := q.Offset
	p.bgp.RunProfiled(p.st, seeds, stats, func(row rdf.Row) bool {
		if distinct != nil && !distinct(row) {
			return true
		}
		if skip > 0 {
			// Streaming OFFSET: skipped (distinct) rows are never
			// materialized, and the LIMIT short-circuit below only counts
			// rows past the offset.
			skip--
			return true
		}
		res.appendProjected(p.projSlots, row)
		// Without a global sort the limit short-circuits the pipeline.
		return limit <= 0 || res.Len() < limit
	})
	return res, nil
}

// distinctFilter returns a per-run DISTINCT check over encoded
// projected slot tuples that reports whether a row is new, or nil when
// the query is not DISTINCT.
func (p *Plan) distinctFilter() func(rdf.Row) bool {
	if !p.q.Distinct {
		return nil
	}
	seen := make(map[string]bool)
	keyBuf := make([]byte, 0, 8*len(p.projSlots))
	return func(row rdf.Row) bool {
		keyBuf = p.projKey(keyBuf, row)
		k := string(keyBuf)
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
}

// executeOrdered runs an ORDER BY query. With a LIMIT it keeps only the
// OFFSET+LIMIT best rows in a bounded heap, ties broken by arrival, so
// the output equals the stable sort of the whole stream. That
// equivalence needs the keys to be totally ordered, which mixing numeric
// with lexical keys or a NaN key breaks; on seeing either, the run stops
// and is repeated with the full stable sort.
func (p *Plan) executeOrdered(seeds []rdf.Row, stats *rdf.RunStats) *Results {
	q := p.q
	var rows []rdf.Row
	if q.Limit > 0 {
		top := newTopK(q.Offset+q.Limit, p.width, q.OrderDesc)
		distinct := p.distinctFilter()
		p.bgp.RunProfiled(p.st, seeds, stats, func(row rdf.Row) bool {
			if distinct != nil && !distinct(row) {
				return true
			}
			return top.offer(p.sortKeyOf(row[p.orderSlot]), row)
		})
		if top.kinds.total() {
			rows = top.sorted()
		} else if stats != nil {
			// The repeated run profiles the stream afresh.
			clear(stats.Steps)
			*stats = rdf.RunStats{Steps: stats.Steps}
		}
	}
	if rows == nil {
		rows = p.sortAll(seeds, stats)
	}
	res := NewResults(p.vars, p.st.Dict())
	lo := q.Offset
	if lo > len(rows) {
		lo = len(rows)
	}
	rows = rows[lo:]
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	for _, row := range rows {
		res.appendProjected(p.projSlots, row)
	}
	return res
}

// sortAll collects every (distinct) row of the stream and stably sorts
// it by its precomputed ORDER BY key.
func (p *Plan) sortAll(seeds []rdf.Row, stats *rdf.RunStats) []rdf.Row {
	var (
		arena    = rdf.NewRowArena(p.width)
		buf      morselBuf
		distinct = p.distinctFilter()
	)
	p.bgp.RunProfiled(p.st, seeds, stats, func(row rdf.Row) bool {
		if distinct != nil && !distinct(row) {
			return true
		}
		buf.rows = append(buf.rows, arena.Copy(row))
		buf.keys = append(buf.keys, p.sortKeyOf(row[p.orderSlot]))
		return true
	})
	sortRun(&buf, p.q.OrderDesc)
	return buf.rows
}

// sortKeyOf computes the ORDER BY key of a bound ID, reading numeric
// values the dictionary computed at intern time; only literals it does
// not type as numbers (plain, language-tagged, WKT) are parsed here.
func (p *Plan) sortKeyOf(id rdf.ID) sortKey {
	if id == rdf.NoID {
		return sortKey{}
	}
	dict := p.st.Dict()
	t := dict.MustDecode(id)
	switch num, kind := dict.NumericValue(id); kind {
	case rdf.Numeric:
		return sortKey{num: num, isNum: true, str: t.Value}
	case rdf.Boolean:
		// A boolean kind means the lexical form did not parse as a float.
		return sortKey{str: t.Value}
	default:
		return makeSortKey(t)
	}
}

// executeAggregates folds the solution stream into COUNT groups without
// materializing rows.
func (p *Plan) executeAggregates(seeds []rdf.Row, stats *rdf.RunStats) (*Results, error) {
	q := p.q
	grouped := q.GroupBy != ""
	type group struct{ counts []int }
	groups := map[rdf.ID]*group{}
	var order []rdf.ID

	// A GROUP BY variable outside the BGP never binds; the legacy
	// evaluator skips every row, so no groups form.
	if !grouped || p.groupSlot >= 0 {
		p.bgp.RunProfiled(p.st, seeds, stats, func(row rdf.Row) bool {
			var key rdf.ID
			if grouped {
				key = row[p.groupSlot]
				if key == rdf.NoID {
					return true
				}
			}
			g := groups[key]
			if g == nil {
				g = &group{counts: make([]int, len(q.Aggregates))}
				groups[key] = g
				order = append(order, key)
			}
			for i, sl := range p.aggSlots {
				switch {
				case sl == countStar:
					g.counts[i]++
				case sl == countNever:
					// COUNT(?v) with ?v never bound: contributes nothing.
				case row[sl] != rdf.NoID:
					g.counts[i]++
				}
			}
			return true
		})
	}
	return p.renderAggregates(order, func(k rdf.ID) []int { return groups[k].counts })
}

// renderAggregates builds the aggregate result from per-group counters
// in first-seen order, applying the empty-COUNT zero row, ORDER BY and
// OFFSET/LIMIT. It is shared by the sequential and parallel executors
// so their aggregate output can never diverge.
func (p *Plan) renderAggregates(order []rdf.ID, counts func(rdf.ID) []int) (*Results, error) {
	q := p.q
	if q.GroupBy == "" && len(order) == 0 {
		// COUNT over the empty solution set is a single zero row.
		zero := make([]int, len(q.Aggregates))
		order = []rdf.ID{rdf.NoID}
		counts = func(rdf.ID) []int { return zero }
	}
	return aggregateResults(p.st.Dict(), q, order, counts), nil
}

// compileFilter compiles a filter expression to a pushed-down row
// predicate. Evaluation errors reject the row (SPARQL semantics).
func (p *Plan) compileFilter(f Expr) rdf.PlanFilter {
	eval, slots, unbound := p.compileExpr(f)
	if unbound != "" {
		return rdf.PlanFilter{
			Pred:  func(rdf.Row) bool { return false },
			Label: f.String() + " (?" + unbound + " unbound: rejects all)",
		}
	}
	return rdf.PlanFilter{
		Slots: slots,
		// The expression tree behind eval may allocate on its error
		// paths, but the per-row dispatch itself must not.
		//eevet:hotpath
		Pred: func(row rdf.Row) bool {
			v, err := eval(row)
			return err == nil && v.Bool()
		},
		Label: f.String(),
	}
}

// exprFn evaluates a compiled expression against a slot row.
type exprFn func(rdf.Row) (Value, error)

// compileExpr lowers an expression to a closure over slot rows,
// resolving variables to slots and pre-evaluating constants (including
// parsing constant WKT geometry arguments once instead of per row). It
// returns the distinct slots the expression reads; unbound names the
// first variable without a slot, which makes the filter unsatisfiable.
func (p *Plan) compileExpr(e Expr) (fn exprFn, slots []int, unbound string) {
	seen := map[int]bool{}
	var walk func(Expr) exprFn
	var missing string
	addSlot := func(sl int) {
		if !seen[sl] {
			seen[sl] = true
			slots = append(slots, sl)
		}
	}
	dict := p.st.Dict()
	walk = func(e Expr) exprFn {
		switch ex := e.(type) {
		case VarExpr:
			sl, ok := p.slots[ex.Name]
			if !ok {
				if missing == "" {
					missing = ex.Name
				}
				return nil
			}
			addSlot(sl)
			return func(row rdf.Row) (Value, error) {
				id := row[sl]
				if id == rdf.NoID {
					return Value{}, unboundErr(ex.Name)
				}
				return idValue(dict, id), nil
			}
		case ConstExpr:
			v := termValue(ex.Term)
			return func(rdf.Row) (Value, error) { return v, nil }
		case NotExpr:
			inner := walk(ex.E)
			if inner == nil {
				return nil
			}
			return func(row rdf.Row) (Value, error) {
				v, err := inner(row)
				if err != nil {
					return Value{}, err
				}
				return boolValue(!v.Bool()), nil
			}
		case AndExpr:
			l, r := walk(ex.L), walk(ex.R)
			if l == nil || r == nil {
				return nil
			}
			return func(row rdf.Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Value{}, err
				}
				if !lv.Bool() {
					return boolValue(false), nil
				}
				rv, err := r(row)
				if err != nil {
					return Value{}, err
				}
				return boolValue(rv.Bool()), nil
			}
		case OrExpr:
			l, r := walk(ex.L), walk(ex.R)
			if l == nil || r == nil {
				return nil
			}
			return func(row rdf.Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Value{}, err
				}
				if lv.Bool() {
					return boolValue(true), nil
				}
				rv, err := r(row)
				if err != nil {
					return Value{}, err
				}
				return boolValue(rv.Bool()), nil
			}
		case CmpExpr:
			if fn, sl, ok := p.compileNumericCmp(ex); ok {
				addSlot(sl)
				return fn
			}
			l, r := walk(ex.L), walk(ex.R)
			if l == nil || r == nil {
				return nil
			}
			op := ex.Op
			return func(row rdf.Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Value{}, err
				}
				rv, err := r(row)
				if err != nil {
					return Value{}, err
				}
				return compare(op, lv, rv)
			}
		case FuncExpr:
			return p.compileFunc(ex, walk)
		default:
			err := fmt.Errorf("unsupported expression %T", e)
			return func(rdf.Row) (Value, error) { return Value{}, err }
		}
	}
	fn = walk(e)
	if missing != "" {
		return nil, nil, missing
	}
	return fn, slots, ""
}

// unboundErr is the FILTER error for a row that leaves a variable
// unbound; evaluation errors reject the row.
func unboundErr(name string) error {
	return fmt.Errorf("unbound variable ?%s in FILTER", name)
}

// compileNumericCmp lowers a comparison between a variable in the BGP
// and a numeric constant, in either order, to a closure that compares
// the value the dictionary computed at intern time: no decode and no
// parse per row. Terms the dictionary does not type as numbers take the
// generic comparison. ok is false for any other comparison shape.
func (p *Plan) compileNumericCmp(ex CmpExpr) (fn exprFn, slot int, ok bool) {
	v, isVar := ex.L.(VarExpr)
	c, isConst := ex.R.(ConstExpr)
	swapped := false
	if !isVar || !isConst {
		v, isVar = ex.R.(VarExpr)
		c, isConst = ex.L.(ConstExpr)
		swapped = true
	}
	if !isVar || !isConst {
		return nil, 0, false
	}
	sl, bound := p.slots[v.Name]
	cv := termValue(c.Term)
	if !bound || !cv.IsNum {
		return nil, 0, false
	}
	dict, op, name := p.st.Dict(), ex.Op, v.Name
	return func(row rdf.Row) (Value, error) {
		id := row[sl]
		if id == rdf.NoID {
			return Value{}, unboundErr(name)
		}
		if num, kind := dict.NumericValue(id); kind == rdf.Numeric {
			if swapped {
				return compareNum(op, cv.Num, num)
			}
			return compareNum(op, num, cv.Num)
		}
		if swapped {
			return compare(op, cv, idValue(dict, id))
		}
		return compare(op, idValue(dict, id), cv)
	}, sl, true
}

// compileFunc lowers a GeoSPARQL function call. Constant geometry
// arguments are parsed from WKT once at compile time instead of once per
// candidate row.
func (p *Plan) compileFunc(ex FuncExpr, walk func(Expr) exprFn) exprFn {
	fail := func(err error) exprFn {
		return func(rdf.Row) (Value, error) { return Value{}, err }
	}
	switch ex.Name {
	case FnSfIntersects, FnSfContains, FnSfWithin, FnDistance:
	default:
		return fail(fmt.Errorf("unknown function <%s>", ex.Name))
	}
	if len(ex.Args) != 2 {
		return fail(fmt.Errorf("%s needs 2 arguments, got %d", ex.Name, len(ex.Args)))
	}
	type geomFn func(rdf.Row) (geom.Geometry, error)
	compileGeom := func(e Expr, idx int) geomFn {
		if c, ok := e.(ConstExpr); ok && c.Term.Kind == rdf.Literal {
			g, err := geom.ParseWKT(c.Term.Value)
			if err != nil {
				return func(rdf.Row) (geom.Geometry, error) { return nil, err }
			}
			return func(rdf.Row) (geom.Geometry, error) { return g, nil }
		}
		inner := walk(e)
		if inner == nil {
			return nil
		}
		name := ex.Name
		return func(row rdf.Row) (geom.Geometry, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			if v.Term.Kind != rdf.Literal {
				return nil, fmt.Errorf("%s: argument %d is not a geometry literal", name, idx)
			}
			return geom.ParseWKT(v.Term.Value)
		}
	}
	g1, g2 := compileGeom(ex.Args[0], 0), compileGeom(ex.Args[1], 1)
	if g1 == nil || g2 == nil {
		return nil
	}
	name := ex.Name
	return func(row rdf.Row) (Value, error) {
		a, err := g1(row)
		if err != nil {
			return Value{}, err
		}
		b, err := g2(row)
		if err != nil {
			return Value{}, err
		}
		switch name {
		case FnSfIntersects:
			return boolValue(geom.Intersects(a, b)), nil
		case FnSfContains:
			return boolValue(geom.Contains(a, b)), nil
		case FnSfWithin:
			return boolValue(geom.Within(a, b)), nil
		default:
			return numValue(geom.Distance(a, b)), nil
		}
	}
}

// Explain renders the plan for humans: slot table, seeding, join order
// with access paths and estimates, pushed filters, and the projection
// pipeline. It backs the eequery -explain flag.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.q.Canonical())
	names := make([]string, p.width)
	for v, sl := range p.slots {
		names[sl] = "?" + v + "=" + fmt.Sprint(sl)
	}
	fmt.Fprintf(&b, "slots: %s\n", strings.Join(names, " "))
	if p.seedSlot >= 0 {
		fmt.Fprintf(&b, "seed: slot %d (spatial index candidates, sorted)\n", p.seedSlot)
	}
	for _, line := range p.bgp.Explain() {
		b.WriteString(line + "\n")
	}
	for _, i := range p.skipped {
		fmt.Fprintf(&b, "filter #%d enforced by spatial index (skipped)\n", i)
	}
	var mods []string
	if p.q.Distinct {
		mods = append(mods, "DISTINCT on encoded slot tuples")
	}
	if p.aggregate {
		mods = append(mods, "streamed COUNT aggregation")
	}
	if p.q.OrderBy != "" {
		if p.orderSlot >= 0 {
			mods = append(mods, "ORDER BY ?"+p.q.OrderBy+" (precomputed keys)")
		} else {
			mods = append(mods, "ORDER BY ?"+p.q.OrderBy+" (no-op: not projected)")
		}
	}
	if p.q.Offset > 0 {
		if p.orderSlot < 0 && !p.aggregate {
			mods = append(mods, fmt.Sprintf("OFFSET %d (streaming skip)", p.q.Offset))
		} else {
			mods = append(mods, fmt.Sprintf("OFFSET %d", p.q.Offset))
		}
	}
	if p.q.Limit > 0 {
		if p.orderSlot < 0 && !p.aggregate {
			mods = append(mods, fmt.Sprintf("LIMIT %d (streaming short-circuit)", p.q.Limit))
		} else {
			mods = append(mods, fmt.Sprintf("LIMIT %d", p.q.Limit))
		}
	}
	if len(mods) > 0 {
		fmt.Fprintf(&b, "project: %s\n", strings.Join(mods, "; "))
	}
	if p.parallel > 1 {
		fmt.Fprintf(&b, "parallel: workers=%d, split=%s\n",
			p.parallel, p.bgp.ParallelSplit(p.seedSlot >= 0))
	}
	return b.String()
}

// --- sort keys (satellite fix: ORDER BY used to re-parse numeric
// literals on every comparison) ---

// sortKey is the per-row ORDER BY key, computed once: the numeric value
// when the term parses as a number, else its lexical value.
type sortKey struct {
	num   float64
	isNum bool
	str   string
}

func makeSortKey(t rdf.Term) sortKey {
	if f, err := t.Float(); err == nil {
		return sortKey{num: f, isNum: true, str: t.Value}
	}
	return sortKey{str: t.Value}
}

// sortKeyLess mirrors termLess: numeric when both sides are numeric,
// lexical otherwise.
func sortKeyLess(a, b sortKey) bool {
	if a.isNum && b.isNum {
		return a.num < b.num
	}
	return a.str < b.str
}

// sortedPerm returns the stable ascending (or descending) order of
// keys as a permutation: position i holds the index of the i-th key.
func sortedPerm(keys []sortKey, desc bool) []int {
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		if desc {
			return sortKeyLess(keys[perm[j]], keys[perm[i]])
		}
		return sortKeyLess(keys[perm[i]], keys[perm[j]])
	})
	return perm
}

// keyKinds records the kinds of ORDER BY keys a stream produced.
// sortKeyLess orders numeric keys without NaN, or lexical keys, totally;
// a mix of numeric and lexical keys, or a NaN, can make it cyclic, and
// then only the stable sort of the whole stream in arrival order defines
// the output.
type keyKinds struct{ num, str, nan bool }

func (k *keyKinds) add(key sortKey) {
	if !key.isNum {
		k.str = true
		return
	}
	k.num = true
	if math.IsNaN(key.num) {
		k.nan = true
	}
}

func (k *keyKinds) total() bool { return !k.nan && !(k.num && k.str) }

// topK keeps the first k rows of a stream under (ORDER BY key, arrival)
// order in a bounded heap whose root is the last row kept. offer asks
// the pipeline to stop once the keys seen are no longer totally ordered
// (see keyKinds).
type topK struct {
	k        int
	desc     bool
	items    []topItem
	arena    *rdf.RowArena
	arrivals int
	kinds    keyKinds
}

type topItem struct {
	key sortKey
	seq int
	row rdf.Row
}

func newTopK(k, width int, desc bool) *topK {
	return &topK{k: k, desc: desc, arena: rdf.NewRowArena(width)}
}

// before reports whether a precedes b in the output order.
func (t *topK) before(a, b *topItem) bool {
	x, y := a.key, b.key
	if t.desc {
		x, y = y, x
	}
	if sortKeyLess(x, y) {
		return true
	}
	if sortKeyLess(y, x) {
		return false
	}
	return a.seq < b.seq
}

// heap.Interface: the root is the item that comes last.
func (t *topK) Len() int           { return len(t.items) }
func (t *topK) Less(i, j int) bool { return t.before(&t.items[j], &t.items[i]) }
func (t *topK) Swap(i, j int)      { t.items[i], t.items[j] = t.items[j], t.items[i] }
func (t *topK) Push(x any)         { t.items = append(t.items, x.(topItem)) }
func (t *topK) Pop() any           { panic("topK: pop") }

// offer considers one row, copying it if kept; it returns false to stop
// the pipeline when the keys stop being totally ordered.
func (t *topK) offer(key sortKey, row rdf.Row) bool {
	if t.kinds.add(key); !t.kinds.total() {
		return false
	}
	it := topItem{key: key, seq: t.arrivals}
	t.arrivals++
	if len(t.items) < t.k {
		it.row = t.arena.Copy(row)
		heap.Push(t, it)
		return true
	}
	if root := &t.items[0]; t.before(&it, root) {
		root.key, root.seq = it.key, it.seq
		copy(root.row, row)
		heap.Fix(t, 0)
	}
	return true
}

// sorted returns the kept rows in output order.
func (t *topK) sorted() []rdf.Row {
	sort.Slice(t.items, func(i, j int) bool { return t.before(&t.items[i], &t.items[j]) })
	rows := make([]rdf.Row, len(t.items))
	for i := range t.items {
		rows[i] = t.items[i].row
	}
	return rows
}
