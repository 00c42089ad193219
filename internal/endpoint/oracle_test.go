package endpoint_test

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/endpoint"
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// This file keeps the reflective result encoders the hand-rolled ones
// replaced: encoding/json over decoded map rows, encoding/csv, and the
// map[string]any GeoJSON feature path. They are the oracle the
// differential tests compare WriteResults against, as EvalLegacy is for
// the slot executor.

func oracleWriteResults(w io.Writer, f endpoint.Format, res *sparql.Results, geomVar string) error {
	rows := res.Maps()
	switch f {
	case endpoint.FormatCSV:
		return oracleSV(w, res.Vars, rows, ',')
	case endpoint.FormatTSV:
		return oracleSV(w, res.Vars, rows, '\t')
	case endpoint.FormatGeoJSON:
		return oracleGeoJSON(w, res.Vars, rows, geomVar)
	default:
		return oracleSPARQLJSON(w, res.Vars, rows)
	}
}

type oracleTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

func oracleTermJSON(t rdf.Term) oracleTerm {
	switch t.Kind {
	case rdf.IRI:
		return oracleTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return oracleTerm{Type: "bnode", Value: t.Value}
	default:
		return oracleTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

func oracleSPARQLJSON(w io.Writer, vars []string, rows []map[string]rdf.Term) error {
	head, err := json.Marshal(vars)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, `{"head":{"vars":%s},"results":{"bindings":[`, head); err != nil {
		return err
	}
	for i, row := range rows {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		binding := make(map[string]oracleTerm, len(row))
		for v, t := range row {
			binding[v] = oracleTermJSON(t)
		}
		buf, err := json.Marshal(binding)
		if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "]}}\n")
	return err
}

func oracleSV(w io.Writer, vars []string, rows []map[string]rdf.Term, sep rune) error {
	cw := csv.NewWriter(w)
	cw.Comma = sep
	if err := cw.Write(vars); err != nil {
		return err
	}
	record := make([]string, len(vars))
	for _, row := range rows {
		for i, v := range vars {
			if t, ok := row[v]; ok {
				record[i] = t.Value
			} else {
				record[i] = ""
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func oracleGeoJSON(w io.Writer, vars []string, rows []map[string]rdf.Term, geomVar string) error {
	if geomVar == "" {
	detect:
		for _, row := range rows {
			for _, v := range vars {
				if t, ok := row[v]; ok && t.Kind == rdf.Literal && t.Datatype == rdf.WKTLiteral {
					geomVar = v
					break detect
				}
			}
		}
	}
	if geomVar == "" && len(rows) > 0 {
		return fmt.Errorf("endpoint: no geometry variable in results (vars %v)", vars)
	}
	head, err := json.Marshal("results")
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, `{"type":"FeatureCollection","name":%s,"features":[`, head); err != nil {
		return err
	}
	n := 0
	for i, row := range rows {
		wkt, ok := row[geomVar]
		if !ok || wkt.Kind != rdf.Literal {
			continue
		}
		g, err := geom.ParseWKT(wkt.Value)
		if err != nil {
			continue
		}
		props := map[string]any{}
		var id string
		for _, v := range vars {
			if v == geomVar {
				continue
			}
			t, bound := row[v]
			if !bound {
				continue
			}
			if t.Kind == rdf.IRI && id == "" {
				id = t.Value
			}
			props[v] = t.Value
		}
		if id == "" {
			id = fmt.Sprintf("row/%d", i)
		}
		gm, err := oracleGeometry(g)
		if err != nil {
			return err
		}
		buf, err := json.Marshal(map[string]any{"type": "Feature", "geometry": gm, "properties": props, "id": id})
		if err != nil {
			return err
		}
		if n > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		n++
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "]}\n")
	return err
}

func oracleGeometry(g geom.Geometry) (map[string]any, error) {
	switch gg := g.(type) {
	case geom.Point:
		return map[string]any{"type": "Point", "coordinates": []float64{gg.X, gg.Y}}, nil
	case geom.Rect:
		return map[string]any{"type": "Polygon", "coordinates": [][][]float64{{
			{gg.Min.X, gg.Min.Y}, {gg.Max.X, gg.Min.Y},
			{gg.Max.X, gg.Max.Y}, {gg.Min.X, gg.Max.Y},
			{gg.Min.X, gg.Min.Y},
		}}}, nil
	case geom.LineString:
		coords := make([][]float64, len(gg.Points))
		for i, p := range gg.Points {
			coords[i] = []float64{p.X, p.Y}
		}
		return map[string]any{"type": "LineString", "coordinates": coords}, nil
	case geom.Polygon:
		return map[string]any{"type": "Polygon", "coordinates": oraclePolygon(gg)}, nil
	case geom.MultiPolygon:
		coords := make([][][][]float64, len(gg.Polygons))
		for i, p := range gg.Polygons {
			coords[i] = oraclePolygon(p)
		}
		return map[string]any{"type": "MultiPolygon", "coordinates": coords}, nil
	default:
		return nil, fmt.Errorf("unsupported geometry %T", g)
	}
}

func oraclePolygon(p geom.Polygon) [][][]float64 {
	out := [][][]float64{oracleRing(p.Shell)}
	for _, h := range p.Holes {
		out = append(out, oracleRing(h))
	}
	return out
}

func oracleRing(r geom.Ring) [][]float64 {
	coords := make([][]float64, 0, len(r)+1)
	for _, p := range r {
		coords = append(coords, []float64{p.X, p.Y})
	}
	if len(r) > 0 {
		coords = append(coords, []float64{r[0].X, r[0].Y})
	}
	return coords
}
