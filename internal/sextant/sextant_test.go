package sextant

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestWriteGeoJSONShapes(t *testing.T) {
	layer := Layer{
		Name: "mixed",
		Features: []Feature{
			{ID: "pt", Geometry: geom.Point{X: 1, Y: 2}},
			{ID: "rect", Geometry: geom.NewRect(0, 0, 10, 10)},
			{ID: "line", Geometry: geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}}}},
			{ID: "poly", Geometry: geom.Polygon{
				Shell: geom.Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}},
				Holes: []geom.Ring{{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}}},
			}},
			{ID: "multi", Geometry: geom.MultiPolygon{Polygons: []geom.Polygon{
				{Shell: geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}},
			}}},
		},
	}
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, layer); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["type"] != "FeatureCollection" {
		t.Errorf("type = %v", doc["type"])
	}
	features := doc["features"].([]any)
	if len(features) != 5 {
		t.Fatalf("features = %d", len(features))
	}
	// Polygon ring must be closed.
	poly := features[3].(map[string]any)["geometry"].(map[string]any)
	rings := poly["coordinates"].([]any)
	if len(rings) != 2 {
		t.Fatalf("polygon rings = %d", len(rings))
	}
	shell := rings[0].([]any)
	first := shell[0].([]any)
	last := shell[len(shell)-1].([]any)
	if first[0] != last[0] || first[1] != last[1] {
		t.Error("polygon shell not closed")
	}
}

func TestLayerFromResults(t *testing.T) {
	st := geostore.New(geostore.ModeIndexed)
	feats := geostore.GeneratePointFeatures(20, 1, geom.NewRect(0, 0, 100, 100))
	for _, f := range feats {
		if err := st.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	st.Build()
	res, err := st.QueryString(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f ?wkt ?v WHERE {
			?f a ee:Feature .
			?f geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
			?f ee:value ?v .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	layer, skipped := LayerFromResults("features", res, "wkt")
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if len(layer.Features) != 20 {
		t.Fatalf("features = %d", len(layer.Features))
	}
	f0 := layer.Features[0]
	if f0.ID == "" || f0.Properties["v"] == "" {
		t.Errorf("feature missing id/properties: %+v", f0)
	}
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, layer); err != nil {
		t.Fatal(err)
	}
}

func TestLayerFromResultsSkipsBadGeometry(t *testing.T) {
	res := testResults(t)
	layer, skipped := LayerFromResults("x", res, "wkt")
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(layer.Features) != 1 {
		t.Errorf("features = %d, want 1", len(layer.Features))
	}
}

func testResults(t *testing.T) *sparql.Results {
	t.Helper()
	res := sparql.NewResults([]string{"f", "wkt"}, nil)
	res.AppendMap(map[string]rdf.Term{"f": rdf.NewIRI("http://x/1"), "wkt": rdf.NewWKTLiteral("POINT (1 2)")})
	res.AppendMap(map[string]rdf.Term{"f": rdf.NewIRI("http://x/2"), "wkt": rdf.NewWKTLiteral("BROKEN")})
	return res
}

func TestTimeSlice(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	layer := Layer{Features: []Feature{
		{ID: "static", Geometry: geom.Point{}},
		{ID: "early", Geometry: geom.Point{}, Timestamp: t0},
		{ID: "late", Geometry: geom.Point{}, Timestamp: t0.AddDate(1, 0, 0)},
	}}
	slice := layer.TimeSlice(t0.AddDate(0, 6, 0))
	if len(slice.Features) != 2 {
		t.Fatalf("slice features = %d", len(slice.Features))
	}
	for _, f := range slice.Features {
		if f.ID == "late" {
			t.Error("future feature leaked into slice")
		}
	}
}

func TestLayerBounds(t *testing.T) {
	layer := Layer{Features: []Feature{
		{Geometry: geom.Point{X: 0, Y: 0}},
		{Geometry: geom.Point{X: 10, Y: 20}},
	}}
	b, ok := layer.Bounds()
	if !ok || b != geom.NewRect(0, 0, 10, 20) {
		t.Errorf("Bounds = %v, %v", b, ok)
	}
	if _, ok := (Layer{}).Bounds(); ok {
		t.Error("empty layer reported bounds")
	}
}

func TestTimestampedGeoJSON(t *testing.T) {
	ts := time.Date(2017, 7, 1, 12, 0, 0, 0, time.UTC)
	layer := Layer{Name: "bergs", Features: []Feature{
		{ID: "b1", Geometry: geom.Point{X: 1, Y: 1}, Timestamp: ts,
			Properties: map[string]any{"cells": 4}},
	}}
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, layer); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("2017-07-01T12:00:00Z")) {
		t.Error("timestamp missing from GeoJSON")
	}
}
