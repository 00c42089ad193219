package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestParseBasicSelect(t *testing.T) {
	q, err := Parse(`SELECT ?x ?y WHERE { ?x <http://example.org/knows> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "x" || q.Vars[1] != "y" {
		t.Errorf("Vars = %v", q.Vars)
	}
	if len(q.Patterns) != 1 {
		t.Fatalf("Patterns = %d", len(q.Patterns))
	}
	p := q.Patterns[0]
	if !p.S.IsVar() || p.S.Var != "x" {
		t.Errorf("S = %v", p.S)
	}
	if p.P.IsVar() || p.P.Term.Value != "http://example.org/knows" {
		t.Errorf("P = %v", p.P)
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x a ex:Person . }`)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Patterns[0]
	if p.P.Term.Value != rdf.RDFType {
		t.Errorf("'a' should expand to rdf:type, got %v", p.P.Term)
	}
	if p.O.Term.Value != "http://example.org/Person" {
		t.Errorf("prefixed name expansion: %v", p.O.Term)
	}
}

func TestParseBuiltinPrefixes(t *testing.T) {
	q, err := Parse(`SELECT ?g WHERE { ?x geo:asWKT ?g . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].P.Term.Value != rdf.GeoAsWKT {
		t.Errorf("geo: prefix = %v", q.Patterns[0].P.Term)
	}
}

func TestParseLiteralsAndModifiers(t *testing.T) {
	q, err := Parse(`
		PREFIX ex: <http://example.org/>
		SELECT DISTINCT ?x WHERE {
			?x ex:age ?age .
			?x ex:name "Alice" .
			FILTER(?age >= 21 && ?age < 65)
		}
		ORDER BY DESC ?age
		LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if q.Limit != 5 {
		t.Errorf("Limit = %d", q.Limit)
	}
	if q.OrderBy != "age" || !q.OrderDesc {
		t.Errorf("OrderBy = %q desc=%v", q.OrderBy, q.OrderDesc)
	}
	if len(q.Filters) != 1 {
		t.Fatalf("Filters = %d", len(q.Filters))
	}
	if _, ok := q.Filters[0].(AndExpr); !ok {
		t.Errorf("filter type = %T", q.Filters[0])
	}
}

func TestParseTypedLiteral(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x geo:asWKT "POINT (1 2)"^^geo:wktLiteral . }`)
	if err != nil {
		t.Fatal(err)
	}
	o := q.Patterns[0].O.Term
	if o.Datatype != rdf.WKTLiteral || o.Value != "POINT (1 2)" {
		t.Errorf("typed literal = %v", o)
	}
}

func TestParseGeoFunction(t *testing.T) {
	q, err := Parse(`
		SELECT ?x WHERE {
			?x geo:asWKT ?wkt .
			FILTER(geof:sfIntersects(?wkt, "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"^^geo:wktLiteral))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := q.Filters[0].(FuncExpr)
	if !ok {
		t.Fatalf("filter = %T", q.Filters[0])
	}
	if f.Name != FnSfIntersects {
		t.Errorf("function = %s", f.Name)
	}
	if len(f.Args) != 2 {
		t.Errorf("args = %d", len(f.Args))
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star {
		t.Error("Star not set")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT WHERE { ?s ?p ?o . }`,
		`SELECT ?x { ?s ?p ?o . }`,
		`SELECT ?x WHERE { ?s ?p }`,
		`SELECT ?x WHERE { ?s ?p ?o . `,
		`SELECT ?x WHERE { ?s unknownprefix:foo ?o . }`,
		`SELECT ?x WHERE { ?s ?p ?o . } LIMIT abc`,
		`SELECT ?x WHERE { ?s ?p ?o . FILTER( }`,
		`SELECT ?x WHERE { ?s ?p ?o . } trailing`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse(`
		# find everything
		SELECT ?s WHERE {
			?s ?p ?o . # triple pattern
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d", len(q.Patterns))
	}
}

func testStore() *rdf.Store {
	st := rdf.NewStore()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }
	st.Add(ex("alice"), ex("age"), rdf.NewIntLiteral(30))
	st.Add(ex("bob"), ex("age"), rdf.NewIntLiteral(17))
	st.Add(ex("carol"), ex("age"), rdf.NewIntLiteral(45))
	st.Add(ex("alice"), ex("name"), rdf.NewLiteral("Alice"))

	// Geometries: alice at (0,0), bob at (10,10), carol at (100,100)
	st.Add(ex("alice"), rdf.NewIRI(rdf.GeoAsWKT), rdf.NewWKTLiteral("POINT (0 0)"))
	st.Add(ex("bob"), rdf.NewIRI(rdf.GeoAsWKT), rdf.NewWKTLiteral("POINT (10 10)"))
	st.Add(ex("carol"), rdf.NewIRI(rdf.GeoAsWKT), rdf.NewWKTLiteral("POINT (100 100)"))
	return st
}

func TestEvalNumericFilter(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:age ?age . FILTER(?age > 18) }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (alice, carol): %s", res.Len(), res)
	}
}

func TestEvalSpatialFilter(t *testing.T) {
	st := testStore()
	q := MustParse(`
		SELECT ?x WHERE {
			?x geo:asWKT ?g .
			FILTER(geof:sfIntersects(?g, "POLYGON ((-5 -5, 15 -5, 15 15, -5 15, -5 -5))"^^geo:wktLiteral))
		}`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (alice, bob)", res.Len())
	}
	for _, row := range res.Maps() {
		if strings.Contains(row["x"].Value, "carol") {
			t.Error("carol should be outside the window")
		}
	}
}

func TestEvalDistanceFilter(t *testing.T) {
	st := testStore()
	q := MustParse(`
		SELECT ?x WHERE {
			?x geo:asWKT ?g .
			FILTER(geof:distance(?g, "POINT (0 0)"^^geo:wktLiteral) < 20)
		}`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestEvalOrderLimit(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?x ?age WHERE { ?x ex:age ?age . } ORDER BY DESC ?age LIMIT 2`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	if v, _ := res.Maps()[0]["age"].Int(); v != 45 {
		t.Errorf("first age = %d, want 45", v)
	}
	if v, _ := res.Maps()[1]["age"].Int(); v != 30 {
		t.Errorf("second age = %d, want 30", v)
	}
}

func TestEvalOrderAscending(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?age WHERE { ?x ex:age ?age . } ORDER BY ?age`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, row := range res.Maps() {
		v, _ := row["age"].Int()
		if v < prev {
			t.Fatalf("rows not ascending: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestEvalDistinct(t *testing.T) {
	st := rdf.NewStore()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }
	st.Add(ex("a"), ex("p"), ex("x"))
	st.Add(ex("b"), ex("p"), ex("x"))
	q := MustParse(`PREFIX ex: <http://example.org/> SELECT DISTINCT ?o WHERE { ?s ex:p ?o . }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("distinct rows = %d, want 1", res.Len())
	}
}

func TestEvalBooleanOps(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:age ?age . FILTER(?age < 20 || ?age > 40) }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (bob, carol)", res.Len())
	}
	qNot := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:age ?age . FILTER(!(?age < 20)) }`)
	res, err = Eval(st, qNot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("NOT rows = %d, want 2", res.Len())
	}
}

func TestEvalStringEquality(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:name ?n . FILTER(?n = "Alice") }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

func TestExtractSpatialFilters(t *testing.T) {
	q := MustParse(`
		SELECT ?x WHERE {
			?x geo:asWKT ?g .
			FILTER(geof:sfIntersects(?g, "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral))
		}`)
	sf := ExtractSpatialFilters(q)
	if len(sf) != 1 {
		t.Fatalf("filters = %d, want 1", len(sf))
	}
	if sf[0].Var != "g" || sf[0].Fn != FnSfIntersects {
		t.Errorf("filter = %+v", sf[0])
	}
	if sf[0].Window.Max.X != 10 {
		t.Errorf("window = %v", sf[0].Window)
	}
}

func TestExtractSpatialFiltersSwappedArgs(t *testing.T) {
	q := MustParse(`
		SELECT ?x WHERE {
			?x geo:asWKT ?g .
			FILTER(geof:sfContains("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral, ?g))
		}`)
	sf := ExtractSpatialFilters(q)
	if len(sf) != 1 {
		t.Fatalf("filters = %d, want 1", len(sf))
	}
	// contains(const, ?g) means ?g within const
	if sf[0].Fn != FnSfWithin {
		t.Errorf("Fn = %s, want sfWithin", sf[0].Fn)
	}
}

func TestExtractIgnoresDisjunctions(t *testing.T) {
	q := MustParse(`
		SELECT ?x WHERE {
			?x geo:asWKT ?g .
			FILTER(geof:sfIntersects(?g, "POINT (0 0)"^^geo:wktLiteral) || ?x = ?g)
		}`)
	if sf := ExtractSpatialFilters(q); len(sf) != 0 {
		t.Errorf("spatial filter extracted from OR branch: %v", sf)
	}
}

func TestEvalUnknownFunction(t *testing.T) {
	st := testStore()
	q := MustParse(`
		SELECT ?x WHERE { ?x geo:asWKT ?g . FILTER(geof:sfCrosses(?g, ?g)) }`)
	res, err := Eval(st, q)
	// Unknown functions reject all rows (SPARQL error semantics).
	if err != nil {
		t.Fatalf("Eval returned hard error: %v", err)
	}
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
}

func TestQueryString(t *testing.T) {
	q := MustParse(`SELECT DISTINCT ?x WHERE { ?x ?p ?o . FILTER(?x = ?o) } LIMIT 3`)
	s := q.String()
	for _, want := range []string{"SELECT", "DISTINCT", "?x", "FILTER", "LIMIT 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestResultsHelpers(t *testing.T) {
	st := testStore()
	q := MustParse(`PREFIX ex: <http://example.org/> SELECT ?x ?age WHERE { ?x ex:age ?age . }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	col := res.Column("age")
	if len(col) != 3 {
		t.Errorf("Column len = %d", len(col))
	}
	if !strings.Contains(res.String(), "age") {
		t.Error("String() missing header")
	}
}

func TestParseCountAggregate(t *testing.T) {
	q, err := Parse(`SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 1 {
		t.Fatalf("aggregates = %d", len(q.Aggregates))
	}
	a := q.Aggregates[0]
	if a.Fn != "COUNT" || a.Var != "x" || a.As != "n" {
		t.Errorf("aggregate = %+v", a)
	}
	qs, err := Parse(`SELECT (COUNT(*) AS ?total) WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Aggregates[0].Var != "" {
		t.Errorf("COUNT(*) Var = %q", qs.Aggregates[0].Var)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	bad := []string{
		`SELECT (SUM(?x) AS ?n) WHERE { ?x ?p ?o . }`,
		`SELECT (COUNT ?x AS ?n) WHERE { ?x ?p ?o . }`,
		`SELECT (COUNT(?x) ?n) WHERE { ?x ?p ?o . }`,
		`SELECT (COUNT(?x) AS ?n WHERE { ?x ?p ?o . }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestEvalCount(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT (COUNT(?x) AS ?n) WHERE { ?x ex:age ?age . FILTER(?age > 18) }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	n, err := res.Maps()[0]["n"].Int()
	if err != nil || n != 2 {
		t.Errorf("count = %d, %v", n, err)
	}
}

func TestEvalCountEmpty(t *testing.T) {
	st := testStore()
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT (COUNT(?x) AS ?n) WHERE { ?x ex:age ?age . FILTER(?age > 1000) }`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d (COUNT of empty set must be one zero row)", res.Len())
	}
	if n, _ := res.Maps()[0]["n"].Int(); n != 0 {
		t.Errorf("count = %d, want 0", n)
	}
}

func TestEvalCountGroupBy(t *testing.T) {
	st := rdf.NewStore()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }
	st.Add(ex("a"), ex("type"), ex("T1"))
	st.Add(ex("b"), ex("type"), ex("T1"))
	st.Add(ex("c"), ex("type"), ex("T2"))
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x ex:type ?t . }
		GROUP BY ?t ORDER BY DESC ?n`)
	res, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	if n, _ := res.Maps()[0]["n"].Int(); n != 2 {
		t.Errorf("largest group count = %d", n)
	}
	if res.Maps()[0]["t"].Value != "http://example.org/T1" {
		t.Errorf("largest group = %v", res.Maps()[0]["t"])
	}
}
