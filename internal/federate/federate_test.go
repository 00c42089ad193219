package federate

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// buildEndpoint creates an endpoint whose features live inside the given
// region.
func buildEndpoint(t *testing.T, name string, region geom.Rect, n int, seed int64) *StoreEndpoint {
	t.Helper()
	st := geostore.New(geostore.ModeIndexed)
	feats := geostore.GeneratePointFeatures(n, seed, region)
	for _, f := range feats {
		if err := st.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	st.Build()
	return NewStoreEndpoint(name, st, 0)
}

func buildFederation(t *testing.T) (*Federation, [4]geom.Rect) {
	t.Helper()
	// Four endpoints tiling a 2000x2000 world.
	regions := [4]geom.Rect{
		geom.NewRect(0, 0, 1000, 1000),
		geom.NewRect(1000, 0, 2000, 1000),
		geom.NewRect(0, 1000, 1000, 2000),
		geom.NewRect(1000, 1000, 2000, 2000),
	}
	f := New()
	for i, r := range regions {
		f.Register(buildEndpoint(t, fmt.Sprintf("ep%d", i), r, 100, int64(i+1)))
	}
	return f, regions
}

func TestFederatedSelectionQuery(t *testing.T) {
	f, _ := buildFederation(t)
	if f.Size() != 4 {
		t.Fatalf("Size = %d", f.Size())
	}
	// Window inside endpoint 0 only.
	q := geostore.SelectionQuery(geom.NewRect(100, 100, 500, 500))
	res, stats, err := f.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queried != 1 {
		t.Errorf("Queried = %d, want 1 (three endpoints spatially pruned)", stats.Queried)
	}
	if stats.PrunedBySpace != 3 {
		t.Errorf("PrunedBySpace = %d, want 3", stats.PrunedBySpace)
	}
	if res.Len() == 0 {
		t.Error("no rows returned")
	}
}

func TestFederatedMatchesCentralized(t *testing.T) {
	f, _ := buildFederation(t)
	// A window spanning all four regions.
	window := geom.NewRect(500, 500, 1500, 1500)
	q := geostore.SelectionQuery(window)

	res, stats, err := f.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queried != 4 {
		t.Errorf("Queried = %d, want 4", stats.Queried)
	}

	// Centralized reference: all features in one store.
	central := geostore.New(geostore.ModeIndexed)
	for i := 0; i < 4; i++ {
		region := geom.NewRect(float64(i%2)*1000, float64(i/2)*1000,
			float64(i%2)*1000+1000, float64(i/2)*1000+1000)
		for _, feat := range geostore.GeneratePointFeatures(100, int64(i+1), region) {
			if err := central.AddFeature(feat); err != nil {
				t.Fatal(err)
			}
		}
	}
	central.Build()
	want, err := central.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != want.Len() {
		t.Errorf("federated %d rows, centralized %d", res.Len(), want.Len())
	}
}

func TestSourceSelectionDisabled(t *testing.T) {
	f, _ := buildFederation(t)
	q := sparql.MustParse(geostore.SelectionQuery(geom.NewRect(100, 100, 200, 200)))
	res1, s1, err := f.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, s2, err := f.Query(q, Options{DisableSourceSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Queried != 4 {
		t.Errorf("without selection Queried = %d, want 4", s2.Queried)
	}
	if s1.Queried >= s2.Queried {
		t.Errorf("selection did not reduce endpoints: %d vs %d", s1.Queried, s2.Queried)
	}
	if res1.Len() != res2.Len() {
		t.Errorf("pruning changed results: %d vs %d rows", res1.Len(), res2.Len())
	}
}

func TestPredicatePruning(t *testing.T) {
	f := New()
	// Endpoint with feature data.
	f.Register(buildEndpoint(t, "features", geom.NewRect(0, 0, 100, 100), 20, 1))
	// Endpoint with unrelated vocabulary.
	other := geostore.New(geostore.ModeIndexed)
	if err := other.Add(
		rdf.NewIRI("http://ex/doc1"),
		rdf.NewIRI("http://ex/title"),
		rdf.NewLiteral("a document"),
	); err != nil {
		t.Fatal(err)
	}
	f.Register(NewStoreEndpoint("documents", other, 0))

	q := `
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE { ?f a ee:Feature . ?f ee:value ?v . }`
	_, stats, err := f.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedByPredicate != 1 {
		t.Errorf("PrunedByPredicate = %d, want 1", stats.PrunedByPredicate)
	}
	if stats.Queried != 1 {
		t.Errorf("Queried = %d, want 1", stats.Queried)
	}
}

func TestGlobalOrderAndLimit(t *testing.T) {
	f, _ := buildFederation(t)
	q := `
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f ?v WHERE { ?f a ee:Feature . ?f ee:value ?v . }
		ORDER BY DESC ?v LIMIT 10`
	res, _, err := f.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("rows = %d, want 10", res.Len())
	}
	var prev int64 = 1 << 40
	for _, row := range res.Maps() {
		v, err := row["v"].Int()
		if err != nil {
			t.Fatal(err)
		}
		if v > prev {
			t.Fatalf("global order violated: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestEndpointLatencySimulation(t *testing.T) {
	st := geostore.New(geostore.ModeIndexed)
	for _, feat := range geostore.GeneratePointFeatures(10, 1, geom.NewRect(0, 0, 10, 10)) {
		if err := st.AddFeature(feat); err != nil {
			t.Fatal(err)
		}
	}
	ep := NewStoreEndpoint("slow", st, 30*time.Millisecond)
	f := New()
	f.Register(ep)
	start := time.Now()
	_, _, err := f.QueryString(`PREFIX ee: <http://extremeearth.eu/ontology#> SELECT ?f WHERE { ?f a ee:Feature . }`)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestParallelFanOut(t *testing.T) {
	// With per-endpoint latency L and parallel fan-out, total time should
	// be ~L, not ~4L.
	f := New()
	for i := 0; i < 4; i++ {
		st := geostore.New(geostore.ModeIndexed)
		for _, feat := range geostore.GeneratePointFeatures(5, int64(i), geom.NewRect(0, 0, 10, 10)) {
			if err := st.AddFeature(feat); err != nil {
				t.Fatal(err)
			}
		}
		f.Register(NewStoreEndpoint(fmt.Sprintf("ep%d", i), st, 50*time.Millisecond))
	}
	start := time.Now()
	_, stats, err := f.QueryString(`PREFIX ee: <http://extremeearth.eu/ontology#> SELECT ?f WHERE { ?f a ee:Feature . }`)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if stats.Queried != 4 {
		t.Fatalf("Queried = %d", stats.Queried)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("fan-out appears serialized: %v for 4x50ms endpoints", elapsed)
	}
}

func TestEmptyFederation(t *testing.T) {
	f := New()
	res, stats, err := f.QueryString(`SELECT ?s WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || stats.Queried != 0 {
		t.Errorf("empty federation: rows=%d queried=%d", res.Len(), stats.Queried)
	}
}

func TestMetadataExtent(t *testing.T) {
	ep := buildEndpoint(t, "x", geom.NewRect(100, 200, 300, 400), 50, 9)
	meta := ep.Metadata()
	if !geom.NewRect(100, 200, 300, 400).ContainsRect(meta.Extent) {
		t.Errorf("extent %v outside region", meta.Extent)
	}
	if !meta.Predicates[rdf.GeoAsWKT] {
		t.Error("metadata missing geo:asWKT predicate")
	}
	if meta.TripleCount == 0 {
		t.Error("TripleCount = 0")
	}
}
