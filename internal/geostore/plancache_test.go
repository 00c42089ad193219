package geostore

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 500)
	s.Build()
	q := sparql.MustParse(SelectionQuery(geom.NewRect(100, 100, 400, 400)))

	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.PlanCacheStats()
	if hits != 0 || misses == 0 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0 hits", hits, misses)
	}
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ = s.PlanCacheStats()
	if hits == 0 {
		t.Fatal("second identical query did not hit the plan cache")
	}

	// A mutation advances the version: the cached plan must not be
	// reused, and the fresh plan must see the new data.
	f := Feature{
		IRI:      "http://example.org/new",
		Class:    FeatureClass,
		Geometry: geom.Point{X: 200, Y: 200},
		Props:    map[string]rdf.Term{},
	}
	if err := s.AddFeature(f); err != nil {
		t.Fatal(err)
	}
	s.Build()
	after, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != first.Len()+1 {
		t.Fatalf("after insert rows = %d, want %d", after.Len(), first.Len()+1)
	}
}

func TestExplainShowsSeededPlan(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 200)
	s.Build()
	q := sparql.MustParse(SelectionQuery(geom.NewRect(100, 100, 400, 400)))
	text, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seed:", "step 1:", "enforced by spatial index"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	naive := New(ModeNaive)
	if text, err := naive.Explain(q); err != nil || !strings.Contains(text, "naive") {
		t.Errorf("naive Explain = %q, %v", text, err)
	}
}

func TestPartitionedDistinctAcrossPartitions(t *testing.T) {
	// The same class IRI appears in every partition; DISTINCT must dedup
	// globally after the merge, not just per partition.
	ps := NewPartitioned(4)
	loadPoints(t, ps, 200)
	ps.Build()
	res, err := ps.QueryString(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT DISTINCT ?t WHERE { ?f a ?t . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("distinct classes = %d, want 1: %v", res.Len(), res.Maps())
	}
}

func TestPartitionedAggregateMerge(t *testing.T) {
	// COUNT groups must fold across partitions: one global row per
	// GROUP BY key with summed counts, not one row per partition.
	ps := NewPartitioned(4)
	loadPoints(t, ps, 100)
	ps.Build()
	res, err := ps.QueryString(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?t (COUNT(*) AS ?n) WHERE { ?f a ?t . } GROUP BY ?t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("grouped rows = %d, want 1: %v", res.Len(), res.Maps())
	}
	if n, err := res.Maps()[0]["n"].Int(); err != nil || n != 100 {
		t.Fatalf("count = %v (%v), want 100", res.Maps()[0]["n"], err)
	}

	// Ungrouped COUNT folds to a single global row too.
	res, err = ps.QueryString(`SELECT (COUNT(*) AS ?n) WHERE { ?f ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("global rows = %d, want 1: %v", res.Len(), res.Maps())
	}
	if n, err := res.Maps()[0]["n"].Int(); err != nil || n != int64(ps.Len()) {
		t.Fatalf("count = %v (%v), want %d", res.Maps()[0]["n"], err, ps.Len())
	}
}

func TestPartitionedLimitPushdown(t *testing.T) {
	ps := NewPartitioned(3)
	loadPoints(t, ps, 300)
	ps.Build()
	res, err := ps.QueryString(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE { ?f a ee:Feature . } LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("limited rows = %d, want 7", res.Len())
	}
}
