package sparql

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// This file differentially tests the compiled slot-based executor (Eval)
// against the legacy map-based evaluator (EvalLegacy): randomized BGPs
// with filters, DISTINCT, ORDER BY, LIMIT and aggregates over a seeded
// dataset must produce the same solution multiset. Every query is
// additionally run through the morsel-driven parallel executor at
// degrees 1, 2 and NumCPU (with tiny morsels, so even this small corpus
// spans many morsels) and compared against the sequential executor:
// order-insensitive for unordered queries, byte-identical under ORDER
// BY, LIMIT and OFFSET.

const (
	diffNS   = "http://example.org/"
	diffProp = diffNS + "p/"
)

// diffStore builds a seeded synthetic graph: typed entities with numeric
// and string properties, inter-entity links, and point geometries.
func diffStore(seed int64, entities int) *rdf.Store {
	rng := rand.New(rand.NewSource(seed))
	st := rdf.NewStore()
	iri := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%se%d", diffNS, i)) }
	for i := 0; i < entities; i++ {
		e := iri(i)
		st.Add(e, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(fmt.Sprintf("%sClass%d", diffNS, rng.Intn(4))))
		if rng.Float64() < 0.9 {
			st.Add(e, rdf.NewIRI(diffProp+"value"), rdf.NewIntLiteral(int64(rng.Intn(100))))
		}
		if rng.Float64() < 0.6 {
			st.Add(e, rdf.NewIRI(diffProp+"score"), rdf.NewFloatLiteral(rng.Float64()*10))
		}
		if rng.Float64() < 0.7 {
			st.Add(e, rdf.NewIRI(diffProp+"name"), rdf.NewLiteral(fmt.Sprintf("name%d", rng.Intn(20))))
		}
		for l := rng.Intn(3); l > 0; l-- {
			st.Add(e, rdf.NewIRI(diffProp+"link"), iri(rng.Intn(entities)))
		}
		if rng.Float64() < 0.5 {
			wkt := fmt.Sprintf("POINT (%d %d)", rng.Intn(100), rng.Intn(100))
			st.Add(e, rdf.NewIRI(diffProp+"wkt"), rdf.NewWKTLiteral(wkt))
		}
	}
	return st
}

// randomQuery generates a query over the diffStore vocabulary.
func randomQuery(rng *rand.Rand) *Query {
	q := &Query{}
	vars := []string{"a", "b", "c", "d"}
	used := []string{}
	pick := func() string {
		// Prefer connecting to an already-used variable.
		if len(used) > 0 && rng.Float64() < 0.75 {
			return used[rng.Intn(len(used))]
		}
		v := vars[rng.Intn(len(vars))]
		return v
	}
	use := func(v string) string {
		for _, u := range used {
			if u == v {
				return v
			}
		}
		used = append(used, v)
		return v
	}
	npat := 1 + rng.Intn(4)
	for i := 0; i < npat; i++ {
		s := rdf.V(use(pick()))
		var p, o rdf.PatternTerm
		switch rng.Intn(8) {
		case 0:
			p = rdf.T(rdf.NewIRI(rdf.RDFType))
			o = rdf.T(rdf.NewIRI(fmt.Sprintf("%sClass%d", diffNS, rng.Intn(5))))
		case 1:
			p = rdf.T(rdf.NewIRI(diffProp + "value"))
			o = rdf.T(rdf.NewIntLiteral(int64(rng.Intn(100))))
		case 2:
			p = rdf.T(rdf.NewIRI(diffProp + "value"))
			o = rdf.V(use(pick()))
		case 3:
			p = rdf.T(rdf.NewIRI(diffProp + "score"))
			o = rdf.V(use(pick()))
		case 4:
			p = rdf.T(rdf.NewIRI(diffProp + "name"))
			o = rdf.V(use(pick()))
		case 5:
			p = rdf.T(rdf.NewIRI(diffProp + "link"))
			o = rdf.V(use(pick()))
		case 6:
			p = rdf.T(rdf.NewIRI(diffProp + "wkt"))
			o = rdf.V(use(pick()))
		default:
			p = rdf.V(use(pick()))
			o = rdf.V(use(pick()))
		}
		q.Patterns = append(q.Patterns, rdf.TriplePattern{S: s, P: p, O: o})
	}

	nfil := rng.Intn(3)
	for i := 0; i < nfil; i++ {
		v := used[rng.Intn(len(used))]
		var e Expr
		switch rng.Intn(7) {
		case 0:
			e = CmpExpr{Op: CmpOp(rng.Intn(6)), L: VarExpr{Name: v},
				R: ConstExpr{Term: rdf.NewIntLiteral(int64(rng.Intn(100)))}}
		case 1:
			e = CmpExpr{Op: OpEq, L: VarExpr{Name: v},
				R: ConstExpr{Term: rdf.NewLiteral(fmt.Sprintf("name%d", rng.Intn(20)))}}
		case 2:
			e = OrExpr{
				L: CmpExpr{Op: OpGt, L: VarExpr{Name: v}, R: ConstExpr{Term: rdf.NewIntLiteral(int64(rng.Intn(100)))}},
				R: NotExpr{E: CmpExpr{Op: OpLe, L: VarExpr{Name: v}, R: ConstExpr{Term: rdf.NewIntLiteral(int64(rng.Intn(100)))}}},
			}
		case 3:
			// Sometimes references a variable outside the BGP, which must
			// reject every row in both evaluators.
			name := v
			if rng.Float64() < 0.3 {
				name = "zz"
			}
			e = AndExpr{
				L: CmpExpr{Op: OpGe, L: VarExpr{Name: name}, R: ConstExpr{Term: rdf.NewIntLiteral(0)}},
				R: CmpExpr{Op: OpNe, L: VarExpr{Name: v}, R: ConstExpr{Term: rdf.NewLiteral("nope")}},
			}
		case 4:
			// Variable-variable geof predicate: a spatial join (or a
			// type-error rejection when the vars bind non-geometries).
			fns := []string{FnSfIntersects, FnSfContains, FnSfWithin}
			e = FuncExpr{Name: fns[rng.Intn(len(fns))], Args: []Expr{
				VarExpr{Name: v},
				VarExpr{Name: used[rng.Intn(len(used))]},
			}}
		case 5:
			// Distance join, both comparison spellings.
			call := FuncExpr{Name: FnDistance, Args: []Expr{
				VarExpr{Name: v},
				VarExpr{Name: used[rng.Intn(len(used))]},
			}}
			d := ConstExpr{Term: rdf.NewFloatLiteral(rng.Float64() * 80)}
			if rng.Float64() < 0.5 {
				e = CmpExpr{Op: OpLt, L: call, R: d}
			} else {
				e = CmpExpr{Op: OpGe, L: d, R: call}
			}
		default:
			win := fmt.Sprintf("POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d))",
				0, 0, 60, 0, 60, 60, 0, 60, 0, 0)
			e = FuncExpr{Name: FnSfIntersects, Args: []Expr{
				VarExpr{Name: v},
				ConstExpr{Term: rdf.NewWKTLiteral(win)},
			}}
		}
		q.Filters = append(q.Filters, e)
	}

	if rng.Float64() < 0.15 {
		// Aggregate query: COUNT(*) or COUNT(?v), optionally grouped.
		if rng.Float64() < 0.5 {
			q.Aggregates = []Aggregate{{Fn: "COUNT", As: "n"}}
		} else {
			q.Aggregates = []Aggregate{{Fn: "COUNT", Var: used[rng.Intn(len(used))], As: "n"}}
		}
		if rng.Float64() < 0.6 {
			q.GroupBy = used[rng.Intn(len(used))]
		}
		if rng.Float64() < 0.4 {
			q.OrderBy = "n"
			q.OrderDesc = rng.Float64() < 0.5
		}
	} else {
		if rng.Float64() < 0.3 {
			q.Star = true
		} else {
			n := 1 + rng.Intn(len(used))
			seen := map[string]bool{}
			for _, v := range used[:n] {
				if !seen[v] {
					seen[v] = true
					q.Vars = append(q.Vars, v)
				}
			}
		}
		q.Distinct = rng.Float64() < 0.3
		if rng.Float64() < 0.4 {
			q.OrderBy = used[rng.Intn(len(used))]
			q.OrderDesc = rng.Float64() < 0.5
		}
	}
	if rng.Float64() < 0.4 {
		q.Limit = 1 + rng.Intn(10)
	}
	if rng.Float64() < 0.3 {
		q.Offset = 1 + rng.Intn(8)
	}
	return q
}

// rowKey renders one result row deterministically.
func rowKey(vars []string, row map[string]rdf.Term) string {
	var b strings.Builder
	for _, v := range vars {
		if t, ok := row[v]; ok {
			b.WriteString(t.String())
		}
		b.WriteByte('\x1f')
	}
	return b.String()
}

func multiset(r *Results) map[string]int {
	m := make(map[string]int, r.Len())
	for _, row := range r.Maps() {
		m[rowKey(r.Vars, row)]++
	}
	return m
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// checkEquivalent asserts the slot executor and the legacy oracle agree
// on q: same row count, same multiset where order/limit make results
// deterministic, and — under ORDER BY with ties or LIMIT truncation —
// rows drawn from the oracle's full solution set with identical sort-key
// sequences.
func checkEquivalent(t *testing.T, st *rdf.Store, q *Query, tag string) {
	t.Helper()
	got, err := Eval(st, q)
	if err != nil {
		t.Fatalf("%s: Eval: %v", tag, err)
	}
	want, err := EvalLegacy(st, q)
	if err != nil {
		t.Fatalf("%s: EvalLegacy: %v", tag, err)
	}
	if strings.Join(got.Vars, ",") != strings.Join(want.Vars, ",") {
		t.Fatalf("%s: vars = %v, want %v", tag, got.Vars, want.Vars)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: rows = %d, want %d\nquery: %s", tag, got.Len(), want.Len(), q.Canonical())
	}
	if q.Limit == 0 && q.Offset == 0 {
		// Without truncation the full multisets must match regardless of
		// row order.
		if !sameMultiset(multiset(got), multiset(want)) {
			t.Fatalf("%s: multiset mismatch\nquery: %s\ngot:\n%swant:\n%s",
				tag, q.Canonical(), got, want)
		}
	} else {
		// LIMIT truncation and OFFSET skipping can cut ties differently;
		// every returned row must exist in the oracle's unmodified
		// solution set (with multiplicity).
		full := *q
		full.Limit = 0
		full.Offset = 0
		wantFull, err := EvalLegacy(st, &full)
		if err != nil {
			t.Fatalf("%s: EvalLegacy(no limit): %v", tag, err)
		}
		pool := multiset(wantFull)
		for _, row := range got.Maps() {
			k := rowKey(got.Vars, row)
			if pool[k] == 0 {
				t.Fatalf("%s: row %q not in oracle solutions\nquery: %s", tag, k, q.Canonical())
			}
			pool[k]--
		}
	}
	if q.OrderBy != "" {
		// The ORDER BY key sequences must agree even when ties were
		// broken differently.
		gm, wm := got.Maps(), want.Maps()
		for i := range gm {
			gk := gm[i][q.OrderBy]
			wk := wm[i][q.OrderBy]
			if gk.String() != wk.String() {
				t.Fatalf("%s: order key %d = %s, want %s\nquery: %s",
					tag, i, gk, wk, q.Canonical())
			}
		}
	}
	checkParallel(t, st, q, got, tag)
}

// parallelDegrees are the morsel-executor degrees every differential
// query runs at.
var parallelDegrees = []int{1, 2, runtime.NumCPU()}

// checkParallel asserts the parallel executor agrees with the
// sequential slot executor's output seq at several degrees. Morsels are
// shrunk so the small test corpus still splits into many morsels.
func checkParallel(t *testing.T, st *rdf.Store, q *Query, seq *Results, tag string) {
	t.Helper()
	plan, err := CompilePlan(st, q, PlanOpts{})
	if err != nil {
		t.Fatalf("%s: CompilePlan: %v", tag, err)
	}
	for _, d := range parallelDegrees {
		// Run analyzed: differential coverage doubles as proof that stats
		// collection never perturbs results (and is race-clean under -race).
		got, prof, err := plan.ExecuteParallelAnalyzed(nil, ParallelExec{Degree: d, ScanMorsel: 16, SeedMorsel: 8})
		if err != nil {
			t.Fatalf("%s: ExecuteParallelAnalyzed(%d): %v", tag, d, err)
		}
		if prof == nil {
			t.Fatalf("%s: ExecuteParallelAnalyzed(%d): nil profile", tag, d)
		}
		// Emitted counts pipeline solutions pre-truncation/aggregation, so
		// it can only undercount the final rows when a LIMIT short-circuits
		// or aggregation folds; it must never be below a full result set.
		if q.OrderBy == "" && q.Limit == 0 && q.Offset == 0 && !q.Distinct && len(q.Aggregates) == 0 {
			if prof.Emitted != int64(got.Len()) {
				t.Fatalf("%s: parallel(%d) profile emitted = %d, want %d", tag, d, prof.Emitted, got.Len())
			}
		}
		if strings.Join(got.Vars, ",") != strings.Join(seq.Vars, ",") {
			t.Fatalf("%s: parallel(%d) vars = %v, want %v", tag, d, got.Vars, seq.Vars)
		}
		if got.Len() != seq.Len() {
			t.Fatalf("%s: parallel(%d) rows = %d, want %d\nquery: %s",
				tag, d, got.Len(), seq.Len(), q.Canonical())
		}
		if q.OrderBy != "" || q.Limit > 0 || q.Offset > 0 {
			// Truncation and ordering must be byte-identical to the
			// sequential executor: same rows, same order.
			gm, sm := got.Maps(), seq.Maps()
			for i := range gm {
				gk := rowKey(got.Vars, gm[i])
				sk := rowKey(seq.Vars, sm[i])
				if gk != sk {
					t.Fatalf("%s: parallel(%d) row %d = %q, want %q\nquery: %s",
						tag, d, i, gk, sk, q.Canonical())
				}
			}
		} else if !sameMultiset(multiset(got), multiset(seq)) {
			t.Fatalf("%s: parallel(%d) multiset mismatch\nquery: %s\ngot:\n%swant:\n%s",
				tag, d, q.Canonical(), got, seq)
		}
	}
}

// TestParallelDistinctLimitBudget pins the DISTINCT+LIMIT interaction
// on the parallel executor: a morsel's locally-distinct rows can be
// cross-worker duplicates, so the per-morsel row budget must not cut
// morsels early under DISTINCT (it would starve the global prefix and
// return fewer rows than the sequential executor).
func TestParallelDistinctLimitBudget(t *testing.T) {
	st := rdf.NewStore()
	// 400 subjects over 12 values: every morsel is packed with
	// duplicates, and only a handful of globally distinct rows exist.
	for i := 0; i < 400; i++ {
		st.Add(
			rdf.NewIRI(fmt.Sprintf("%sdup%d", diffNS, i)),
			rdf.NewIRI(diffProp+"value"),
			rdf.NewIntLiteral(int64(i%12)),
		)
	}
	for _, limit := range []int{3, 11, 12, 13} {
		q, err := Parse(fmt.Sprintf(
			`SELECT DISTINCT ?v WHERE { ?s <%svalue> ?v . } LIMIT %d`, diffProp, limit))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Eval(st, q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := CompilePlan(st, q, PlanOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{2, 3, 4} {
			got, err := plan.ExecuteParallel(ParallelExec{Degree: d, ScanMorsel: 8})
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != seq.Len() {
				t.Fatalf("limit %d degree %d: rows = %d, want %d", limit, d, got.Len(), seq.Len())
			}
			gm, sm := got.Maps(), seq.Maps()
			for i := range gm {
				if g, w := rowKey(got.Vars, gm[i]), rowKey(seq.Vars, sm[i]); g != w {
					t.Fatalf("limit %d degree %d row %d = %q, want %q", limit, d, i, g, w)
				}
			}
		}
	}
}

func TestDifferentialRandomQueries(t *testing.T) {
	const perSeed = 400
	for _, seed := range []int64{1, 2, 3} {
		st := diffStore(seed, 60)
		rng := rand.New(rand.NewSource(seed * 1000))
		for i := 0; i < perSeed; i++ {
			q := randomQuery(rng)
			checkEquivalent(t, st, q, fmt.Sprintf("seed %d query %d", seed, i))
		}
	}
}

// TestDifferentialParsedQueries runs hand-written corner cases through
// the same equivalence check.
func TestDifferentialParsedQueries(t *testing.T) {
	st := diffStore(7, 80)
	queries := []string{
		`SELECT ?a WHERE { ?a a <http://example.org/Class1> . }`,
		`SELECT * WHERE { ?a <http://example.org/p/link> ?b . ?b <http://example.org/p/link> ?c . }`,
		`SELECT DISTINCT ?b WHERE { ?a <http://example.org/p/link> ?b . }`,
		`SELECT ?a ?v WHERE { ?a <http://example.org/p/value> ?v . FILTER(?v > 50) } ORDER BY ?v LIMIT 5`,
		`SELECT ?a ?v WHERE { ?a <http://example.org/p/value> ?v . FILTER(?v > 20 && ?v <= 80) } ORDER BY DESC ?v`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a <http://example.org/p/link> ?b . }`,
		`SELECT (COUNT(?b) AS ?n) WHERE { ?a a ?t . ?a <http://example.org/p/link> ?b . } GROUP BY ?t ORDER BY ?n`,
		`SELECT ?a WHERE { ?a ?p ?a . }`,
		`SELECT ?a WHERE { ?a <http://example.org/p/value> ?v . FILTER(?unbound > 3) }`,
		`SELECT ?a WHERE { ?a a <http://example.org/NoSuchClass> . }`,
		`SELECT ?n WHERE { ?a <http://example.org/p/name> ?n . ?a <http://example.org/p/value> ?v . } ORDER BY ?n LIMIT 7`,
		`SELECT DISTINCT ?t WHERE { ?a a ?t . ?a <http://example.org/p/value> ?v . FILTER(?v >= 10) } ORDER BY ?t`,
		`SELECT ?a ?v WHERE { ?a <http://example.org/p/value> ?v . } ORDER BY ?v OFFSET 5`,
		`SELECT ?a ?v WHERE { ?a <http://example.org/p/value> ?v . } ORDER BY ?v LIMIT 4 OFFSET 3`,
		`SELECT ?a ?v WHERE { ?a <http://example.org/p/value> ?v . } OFFSET 6 LIMIT 4`,
		`SELECT DISTINCT ?v WHERE { ?a <http://example.org/p/value> ?v . } OFFSET 10`,
		`SELECT ?a WHERE { ?a <http://example.org/p/value> ?v . } OFFSET 100000`,
		`SELECT ?a ?b WHERE { ?a <http://example.org/p/wkt> ?wa . ?b <http://example.org/p/wkt> ?wb . FILTER(geof:sfIntersects(?wa, ?wb)) }`,
		`SELECT ?a ?b WHERE { ?a <http://example.org/p/wkt> ?wa . ?b <http://example.org/p/wkt> ?wb . FILTER(geof:distance(?wa, ?wb) < 25) } ORDER BY ?a LIMIT 20`,
		`SELECT ?a WHERE { ?a <http://example.org/p/wkt> ?wa . ?a <http://example.org/p/name> ?n . FILTER(geof:sfWithin(?wa, ?n)) }`,
	}
	for i, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		checkEquivalent(t, st, q, fmt.Sprintf("parsed %d", i))
	}
}
