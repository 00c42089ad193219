package sparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// filterStore binds <s/i> <p/x> to one awkward literal each: lexical
// forms strconv.ParseFloat reads generously or rejects, typed strings
// and language tags that look numeric, booleans and a WKT literal. The
// compiled FILTER reads each term's numeric value from the dictionary
// by ID; EvalLegacy parses the decoded term per row.
func filterStore() *rdf.Store {
	st := rdf.NewStore()
	objs := []rdf.Term{
		rdf.NewTypedLiteral("01", rdf.XSDInteger),
		rdf.NewTypedLiteral("1e3", rdf.XSDDouble),
		rdf.NewTypedLiteral("+5", rdf.XSDInteger),
		rdf.NewTypedLiteral("-0", rdf.XSDInteger),
		rdf.NewTypedLiteral(" 5", rdf.XSDInteger),
		rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
		rdf.NewTypedLiteral("INF", rdf.XSDDouble),
		rdf.NewTypedLiteral("-INF", rdf.XSDDouble),
		rdf.NewTypedLiteral("5", rdf.XSDString),
		rdf.NewLangLiteral("5", "en"),
		rdf.NewLiteral("5"),
		rdf.NewIntLiteral(5),
		rdf.NewTypedLiteral("5.0", rdf.XSDDouble),
		rdf.NewBoolLiteral(true),
		rdf.NewBoolLiteral(false),
		rdf.NewTypedLiteral("1", rdf.XSDBoolean),
		rdf.NewTypedLiteral("yes", rdf.XSDBoolean),
		rdf.NewWKTLiteral("POINT (5 5)"),
		rdf.NewIRI(diffNS + "5"),
		rdf.NewTypedLiteral("abc", rdf.XSDInteger),
	}
	for i, o := range objs {
		s := rdf.NewIRI(fmt.Sprintf("%ss/%d", diffNS, i))
		st.Add(s, rdf.NewIRI(diffProp+"x"), o)
		// A second binding per subject for variable-variable comparisons.
		st.Add(s, rdf.NewIRI(diffProp+"y"), objs[(i*7+3)%len(objs)])
	}
	return st
}

// TestDifferentialNumericFilters checks the ID-native FILTER
// comparisons against EvalLegacy, sequentially and on the parallel
// executor at degrees 1, 2 and NumCPU, with the variable on either
// side of every operator and constants of every shape.
func TestDifferentialNumericFilters(t *testing.T) {
	st := filterStore()
	consts := []string{
		"5", "1", "0", "-0", "1000", "1e3", "5.0", "+5",
		`"5"^^<` + rdf.XSDString + `>`,
		`"5"@en`,
		`"5"`,
		`"NaN"^^<` + rdf.XSDDouble + `>`,
		`"INF"^^<` + rdf.XSDDouble + `>`,
		`"true"^^<` + rdf.XSDBoolean + `>`,
		`"false"^^<` + rdf.XSDBoolean + `>`,
		`"POINT (5 5)"^^<` + rdf.WKTLiteral + `>`,
		`<` + diffNS + `5>`,
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	n := 0
	check := func(qs string) {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		checkEquivalent(t, st, q, fmt.Sprintf("filter %d", n))
		n++
	}
	const bgp = `?s <http://example.org/p/x> ?v . ?s <http://example.org/p/y> ?w .`
	for _, op := range ops {
		for _, c := range consts {
			check(`SELECT ?s ?v WHERE { ` + bgp + ` FILTER(?v ` + op + ` ` + c + `) }`)
			check(`SELECT ?s ?v WHERE { ` + bgp + ` FILTER(` + c + ` ` + op + ` ?v) }`)
		}
		check(`SELECT ?s ?v ?w WHERE { ` + bgp + ` FILTER(?v ` + op + ` ?w) }`)
		check(`SELECT ?s ?v WHERE { ` + bgp + ` FILTER(!(?v ` + op + ` 5) || ?w ` + op + ` 1) }`)
	}
	check(`SELECT ?s ?v WHERE { ` + bgp + ` FILTER(?v) }`)
	check(`SELECT ?s ?v WHERE { ` + bgp + ` FILTER(?v >= 0 && ?v < 6) }`)
	check(`SELECT ?s ?v WHERE { ` + bgp + ` } ORDER BY ?v`)
	check(`SELECT ?s ?v WHERE { ` + bgp + ` } ORDER BY DESC ?v LIMIT 6`)
	check(`SELECT ?s ?v WHERE { ` + bgp + ` FILTER(?v > 0) } ORDER BY ?v LIMIT 3 OFFSET 1`)
}

// TestOrderByLimitMatchesFullSort pins the bounded top-k ORDER BY path
// to the full stable sort: totally ordered keys (numbers alone, strings
// alone) take the heap, and mixed numeric/lexical or NaN keys, which
// the heap cannot order like the sort, fall back to it.
func TestOrderByLimitMatchesFullSort(t *testing.T) {
	st := filterStore()
	diff := diffStore(5, 120)
	cases := []struct {
		st *rdf.Store
		q  string
	}{
		{st, `SELECT ?s ?v WHERE { ?s <http://example.org/p/x> ?v . }`},
		{st, `SELECT ?s ?v WHERE { ?s <http://example.org/p/x> ?v . FILTER(?v < 100) }`},
		{diff, `SELECT ?a ?v WHERE { ?a <http://example.org/p/value> ?v . }`},
		{diff, `SELECT ?a ?v WHERE { ?a <http://example.org/p/name> ?v . }`},
		{diff, `SELECT DISTINCT ?v WHERE { ?a <http://example.org/p/value> ?v . }`},
		{diff, `SELECT ?a ?v WHERE { ?a ?p ?v . }`},
	}
	for i, c := range cases {
		for _, mod := range []string{
			" ORDER BY ?v LIMIT 1", " ORDER BY ?v LIMIT 7", " ORDER BY DESC ?v LIMIT 7",
			" ORDER BY ?v LIMIT 5 OFFSET 4", " ORDER BY DESC ?v LIMIT 3 OFFSET 30", " ORDER BY ?v LIMIT 100000",
		} {
			q, err := Parse(c.q + mod)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Eval(c.st, q)
			if err != nil {
				t.Fatal(err)
			}
			full := *q
			full.Limit, full.Offset = 0, 0
			all, err := Eval(c.st, &full)
			if err != nil {
				t.Fatal(err)
			}
			ApplyOffsetLimit(all, q)
			if g, w := got.String(), all.String(); g != w {
				t.Errorf("case %d%s:\n got %s\nwant %s", i, mod, g, w)
			}
		}
	}
}
