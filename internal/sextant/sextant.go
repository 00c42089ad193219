// Package sextant implements the visualization layer of the TELEIOS/LEO
// stack the paper builds on (Nikolaou et al., "Sextant: Visualizing
// time-evolving linked geospatial data" [5]): it renders query results
// and feature sets as GeoJSON FeatureCollections and assembles them into
// named map layers, the exchange format every web map client consumes.
//
// GeoJSON is written by one hand-rolled encoder: object keys in sorted
// order and strings and numbers formatted exactly as encoding/json
// would, so the bytes match a json.Marshal of the equivalent maps.
package sextant

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/jsonenc"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Feature is one map feature: a geometry with properties.
type Feature struct {
	ID       string
	Geometry geom.Geometry
	// Properties holds string, bool, int, int64 or float64 values, or
	// nil.
	Properties map[string]any
	// Timestamp enables time-evolving layers (Sextant's distinguishing
	// capability); zero means static.
	Timestamp time.Time
}

// Layer is a named collection of features.
type Layer struct {
	Name     string
	Features []Feature
}

// Map is a set of layers to render together.
type Map struct {
	Title  string
	Layers []Layer
}

// appendGeometry appends the GeoJSON geometry object of g.
func appendGeometry(dst []byte, g geom.Geometry) ([]byte, error) {
	var err error
	dst = append(dst, `{"coordinates":`...)
	var kind string
	switch gg := g.(type) {
	case geom.Point:
		kind = "Point"
		dst, err = appendPoint(dst, gg)
	case geom.Rect:
		kind = "Polygon"
		dst = append(dst, '[')
		dst, err = appendRing(dst, geom.Ring{gg.Min, {X: gg.Max.X, Y: gg.Min.Y}, gg.Max, {X: gg.Min.X, Y: gg.Max.Y}})
		dst = append(dst, ']')
	case geom.LineString:
		kind = "LineString"
		dst, err = appendPoints(dst, gg.Points, false)
	case geom.Polygon:
		kind = "Polygon"
		dst, err = appendPolygon(dst, gg)
	case geom.MultiPolygon:
		kind = "MultiPolygon"
		dst = append(dst, '[')
		for i, p := range gg.Polygons {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendPolygon(dst, p); err != nil {
				break
			}
		}
		dst = append(dst, ']')
	default:
		return dst, fmt.Errorf("sextant: unsupported geometry %T", g)
	}
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"type":"`...)
	dst = append(dst, kind...)
	return append(dst, `"}`...), nil
}

func appendPoint(dst []byte, p geom.Point) ([]byte, error) {
	dst = append(dst, '[')
	dst, err := jsonenc.AppendFloat(dst, p.X)
	if err != nil {
		return dst, err
	}
	dst = append(dst, ',')
	if dst, err = jsonenc.AppendFloat(dst, p.Y); err != nil {
		return dst, err
	}
	return append(dst, ']'), nil
}

// appendPoints appends a coordinate array; closed repeats the first
// point at the end (GeoJSON rings are explicitly closed).
func appendPoints(dst []byte, pts []geom.Point, closed bool) ([]byte, error) {
	dst = append(dst, '[')
	var err error
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendPoint(dst, p); err != nil {
			return dst, err
		}
	}
	if closed && len(pts) > 0 {
		dst = append(dst, ',')
		if dst, err = appendPoint(dst, pts[0]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendRing(dst []byte, r geom.Ring) ([]byte, error) { return appendPoints(dst, r, true) }

func appendPolygon(dst []byte, p geom.Polygon) ([]byte, error) {
	dst = append(dst, '[')
	dst, err := appendRing(dst, p.Shell)
	for _, h := range p.Holes {
		if err != nil {
			return dst, err
		}
		dst = append(dst, ',')
		dst, err = appendRing(dst, h)
	}
	return append(dst, ']'), err
}

// A Feature object's members in encoding/json's sorted key order.
const (
	featureOpen  = `{"geometry":`
	featureID    = `,"id":`
	featureProps = `,"properties":`
	featureClose = `,"type":"Feature"}`
)

// appendCollectionHead opens a FeatureCollection named name.
func appendCollectionHead(dst []byte, name string) []byte {
	dst = append(dst, `{"type":"FeatureCollection","name":`...)
	dst = jsonenc.AppendString(dst, name)
	return append(dst, `,"features":[`...)
}

// collectionTail closes a FeatureCollection.
const collectionTail = "]}\n"

// appendFeature appends one layer feature; the id member is omitted
// when the feature has none.
func appendFeature(dst []byte, f Feature) ([]byte, error) {
	dst, err := appendGeometry(append(dst, featureOpen...), f.Geometry)
	if err != nil {
		return dst, err
	}
	if f.ID != "" {
		dst = jsonenc.AppendString(append(dst, featureID...), f.ID)
	}
	if dst, err = appendProperties(append(dst, featureProps...), f); err != nil {
		return dst, err
	}
	return append(dst, featureClose...), nil
}

// appendProperties appends a feature's properties object (plus its
// timestamp, when set) with keys in sorted order.
func appendProperties(dst []byte, f Feature) ([]byte, error) {
	keys := make([]string, 0, len(f.Properties)+1)
	for k := range f.Properties {
		keys = append(keys, k)
	}
	_, hasTS := f.Properties["timestamp"]
	if !f.Timestamp.IsZero() && !hasTS {
		keys = append(keys, "timestamp")
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, k)
		dst = append(dst, ':')
		v := f.Properties[k]
		if k == "timestamp" && !f.Timestamp.IsZero() {
			v = f.Timestamp.Format(time.RFC3339)
		}
		if dst, err = appendValue(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendValue appends a property value.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return jsonenc.AppendString(dst, x), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case float64:
		return jsonenc.AppendFloat(dst, x)
	default:
		return dst, fmt.Errorf("sextant: unsupported property type %T", v)
	}
}

// WriteGeoJSON serializes a layer as a GeoJSON FeatureCollection.
func WriteGeoJSON(w io.Writer, layer Layer) error {
	dst := appendCollectionHead(nil, layer.Name)
	for i, f := range layer.Features {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFeature(dst, f); err != nil {
			return err
		}
	}
	_, err := w.Write(append(dst, collectionTail...))
	return err
}

// resultColumns assigns GeoJSON roles to a result's variables: the
// geometry variable, and one property per other name, in sorted order,
// with its encoded `"name":` key.
type resultColumns struct {
	geom  sparql.NameColumns
	props []sparql.NameColumns
	keys  [][]byte
	ids   []sparql.NameColumns // per non-geometry column, in projection order
}

func newResultColumns(res *sparql.Results, geomVar string) *resultColumns {
	rc := &resultColumns{}
	for _, n := range res.SortedNames() {
		if n.Name == geomVar {
			rc.geom = n
			continue
		}
		rc.props = append(rc.props, n)
		rc.keys = append(rc.keys, append(jsonenc.AppendString(nil, n.Name), ':'))
	}
	for _, n := range res.ColumnNames() {
		if n.Name != geomVar {
			rc.ids = append(rc.ids, n)
		}
	}
	return rc
}

// rowGeometry parses row's geometry cell; ok is false when it is
// unbound, not a literal, or not valid WKT.
func rowGeometry(res *sparql.Results, id rdf.ID) (geom.Geometry, bool) {
	t, ok := res.Term(id)
	if !ok || t.Kind != rdf.Literal {
		return nil, false
	}
	g, err := geom.ParseWKT(t.Value)
	return g, err == nil
}

// rowID returns the cell of the first non-empty IRI property in
// projection order, or NoID.
func (rc *resultColumns) rowID(res *sparql.Results, row []rdf.ID) rdf.ID {
	for _, n := range rc.ids {
		id := n.Cell(row)
		if t, ok := res.Term(id); ok && t.Kind == rdf.IRI && t.Value != "" {
			return id
		}
	}
	return rdf.NoID
}

// presizeAfter is the number of rows whose average size predicts the
// rest of the collection.
const presizeAfter = 16

// AppendResults appends stSPARQL results as a GeoJSON FeatureCollection
// named name: one feature per row whose geomVar cell is a parsable
// geometry literal, every other projected variable a string property,
// and the feature id the first IRI value in projection order (else
// "row/<i>"). It writes from the ID rows directly: each distinct
// geometry is parsed and encoded once, and each distinct property value
// encoded once, per call.
func AppendResults(dst []byte, name string, res *sparql.Results, geomVar string) ([]byte, error) {
	rc := newResultColumns(res, geomVar)
	dst = appendCollectionHead(dst, name)
	var (
		heads    = jsonenc.NewSpans(res.Len())
		values   = jsonenc.NewSpans(res.Len() * len(rc.props))
		err      error
		features int
	)
	appendValue := func(dst []byte, id rdf.ID) []byte {
		return values.Append(dst, int64(id), func(b []byte) []byte {
			t, _ := res.Term(id)
			return jsonenc.AppendString(b, t.Value)
		})
	}
	start := len(dst)
	for i := 0; i < res.Len(); i++ {
		if i == presizeAfter {
			dst = jsonenc.Presize(dst, start, i, res.Len())
		}
		row := res.Row(i)
		mark := len(dst)
		if features > 0 {
			dst = append(dst, ',')
		}
		// The memoized head is the feature's opening through its
		// geometry; a row whose geometry does not parse memoizes an
		// empty head and is skipped.
		head := len(dst)
		gid := rc.geom.Cell(row)
		dst = heads.Append(dst, int64(gid), func(b []byte) []byte {
			g, ok := rowGeometry(res, gid)
			if !ok {
				return b
			}
			out, gerr := appendGeometry(append(b, featureOpen...), g)
			if gerr != nil {
				err = gerr
				return b
			}
			return out
		})
		if err != nil {
			return dst, err
		}
		if len(dst) == head {
			dst = dst[:mark]
			continue
		}
		features++
		dst = append(dst, featureID...)
		if id := rc.rowID(res, row); id != rdf.NoID {
			dst = appendValue(dst, id)
		} else {
			dst = append(strconv.AppendInt(append(dst, `"row/`...), int64(i), 10), '"')
		}
		dst = append(dst, featureProps...)
		dst = append(dst, '{')
		first := true
		for p, n := range rc.props {
			id := n.Cell(row)
			if id == rdf.NoID {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, rc.keys[p]...)
			dst = appendValue(dst, id)
		}
		dst = append(dst, '}')
		dst = append(dst, featureClose...)
	}
	return append(dst, collectionTail...), nil
}

// LayerFromResults builds a layer from stSPARQL results: geomVar names
// the variable holding WKT literals; every other projected variable
// becomes a string feature property, and the first IRI value the
// feature ID (else "<name>/<i>"). Rows whose geometry variable is
// unbound or unparsable are skipped and counted.
func LayerFromResults(name string, res *sparql.Results, geomVar string) (Layer, int) {
	rc := newResultColumns(res, geomVar)
	layer := Layer{Name: name}
	skipped := 0
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		g, ok := rowGeometry(res, rc.geom.Cell(row))
		if !ok {
			skipped++
			continue
		}
		f := Feature{ID: fmt.Sprintf("%s/%d", name, i), Geometry: g, Properties: map[string]any{}}
		if t, ok := res.Term(rc.rowID(res, row)); ok {
			f.ID = t.Value
		}
		for _, n := range rc.props {
			if t, ok := res.Term(n.Cell(row)); ok {
				f.Properties[n.Name] = t.Value
			}
		}
		layer.Features = append(layer.Features, f)
	}
	return layer, skipped
}

// TimeSlice returns the features visible at t: static features plus
// timestamped features with Timestamp <= t (the temporal slider of the
// Sextant UI).
func (l Layer) TimeSlice(t time.Time) Layer {
	out := Layer{Name: l.Name}
	for _, f := range l.Features {
		if f.Timestamp.IsZero() || !f.Timestamp.After(t) {
			out.Features = append(out.Features, f)
		}
	}
	return out
}

// Bounds returns the layer's spatial extent; ok is false for an empty
// layer.
func (l Layer) Bounds() (geom.Rect, bool) {
	if len(l.Features) == 0 {
		return geom.Rect{}, false
	}
	b := l.Features[0].Geometry.Bounds()
	for _, f := range l.Features[1:] {
		b = b.Union(f.Geometry.Bounds())
	}
	return b, true
}
