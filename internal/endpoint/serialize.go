package endpoint

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/jsonenc"
	"repro/internal/rdf"
	"repro/internal/sextant"
	"repro/internal/sparql"
)

// Format enumerates the supported result serializations.
type Format int

const (
	// FormatJSON is W3C SPARQL 1.1 Query Results JSON.
	FormatJSON Format = iota
	// FormatCSV is the SPARQL 1.1 CSV results format.
	FormatCSV
	// FormatTSV is the SPARQL 1.1 TSV results format.
	FormatTSV
	// FormatGeoJSON renders rows binding WKT literals as a GeoJSON
	// FeatureCollection (the Sextant exchange format).
	FormatGeoJSON
)

func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	case FormatTSV:
		return "tsv"
	case FormatGeoJSON:
		return "geojson"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ContentType returns the MIME type the format is served as.
func (f Format) ContentType() string {
	switch f {
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatTSV:
		return "text/tab-separated-values; charset=utf-8"
	case FormatGeoJSON:
		return "application/geo+json"
	default:
		return "application/sparql-results+json"
	}
}

// ParseFormat resolves a format name (as used by the ?format= query
// parameter and the eequery -format flag).
func ParseFormat(s string) (Format, bool) {
	switch strings.ToLower(s) {
	case "json", "sparql-json":
		return FormatJSON, true
	case "csv":
		return FormatCSV, true
	case "tsv":
		return FormatTSV, true
	case "geojson":
		return FormatGeoJSON, true
	default:
		return FormatJSON, false
	}
}

// acceptFormats maps Accept media ranges to formats, most specific first.
var acceptFormats = []struct {
	mime string
	f    Format
}{
	{"application/sparql-results+json", FormatJSON},
	{"application/geo+json", FormatGeoJSON},
	{"application/json", FormatJSON},
	{"text/csv", FormatCSV},
	{"text/tab-separated-values", FormatTSV},
}

// NegotiateFormat picks a format from an Accept header value. Media ranges
// are considered in the order they appear; q-values beyond presence are
// ignored (first supported range wins). Empty or wildcard accepts default
// to SPARQL JSON; ok is false when the header names only unsupported types.
func NegotiateFormat(accept string) (Format, bool) {
	if strings.TrimSpace(accept) == "" {
		return FormatJSON, true
	}
	any := false
	for _, part := range strings.Split(accept, ",") {
		mime := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mime == "*/*" || mime == "application/*" || mime == "text/*" {
			any = true
			continue
		}
		for _, af := range acceptFormats {
			if strings.EqualFold(mime, af.mime) {
				return af.f, true
			}
		}
	}
	if any {
		return FormatJSON, true
	}
	return FormatJSON, false
}

// WriteResults serializes res to w in the given format. For FormatGeoJSON,
// geomVar names the variable holding WKT literals; when empty it is
// auto-detected as the first projected variable binding a wktLiteral.
func WriteResults(w io.Writer, f Format, res *sparql.Results, geomVar string) error {
	body, err := AppendResults(nil, f, res, geomVar)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// AppendResults is WriteResults into a byte slice. Every format is
// written by a hand-rolled encoder straight from the ID rows: each
// distinct term is encoded once per response and later occurrences copy
// its bytes, and the buffer grows once to the size the first rows
// predict.
func AppendResults(dst []byte, f Format, res *sparql.Results, geomVar string) ([]byte, error) {
	switch f {
	case FormatCSV:
		return appendSV(dst, res, ','), nil
	case FormatTSV:
		return appendSV(dst, res, '\t'), nil
	case FormatGeoJSON:
		return appendGeoJSON(dst, res, geomVar)
	default:
		return appendSPARQLJSON(dst, res), nil
	}
}

// presizeAfter is the number of rows whose average size predicts the
// rest of the response.
const presizeAfter = 16

// appendTermJSON appends a term in SPARQL JSON results form.
func appendTermJSON(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		dst = append(dst, `{"type":"uri","value":`...)
	case rdf.Blank:
		dst = append(dst, `{"type":"bnode","value":`...)
	default:
		dst = append(dst, `{"type":"literal","value":`...)
	}
	dst = jsonenc.AppendString(dst, t.Value)
	if t.Kind == rdf.Literal {
		if t.Datatype != "" {
			dst = append(dst, `,"datatype":`...)
			dst = jsonenc.AppendString(dst, t.Datatype)
		}
		if t.Lang != "" {
			dst = append(dst, `,"xml:lang":`...)
			dst = jsonenc.AppendString(dst, t.Lang)
		}
	}
	return append(dst, '}')
}

// appendSPARQLJSON appends the W3C SPARQL 1.1 JSON results document:
// each binding object lists its bound variables in sorted order, as
// encoding/json orders a map's keys.
func appendSPARQLJSON(dst []byte, res *sparql.Results) []byte {
	dst = append(dst, `{"head":{"vars":`...)
	if res.Vars == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range res.Vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.AppendString(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"results":{"bindings":[`...)
	names := res.SortedNames()
	keys := make([][]byte, len(names))
	for i, n := range names {
		keys[i] = append(jsonenc.AppendString(nil, n.Name), ':')
	}
	terms := jsonenc.NewSpans(res.Len() * len(names))
	start := len(dst)
	for i := 0; i < res.Len(); i++ {
		if i == presizeAfter {
			dst = jsonenc.Presize(dst, start, i, res.Len())
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		row := res.Row(i)
		first := true
		for k, n := range names {
			id := n.Cell(row)
			if id == rdf.NoID {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, keys[k]...)
			dst = terms.Append(dst, int64(id), func(b []byte) []byte {
				t, _ := res.Term(id)
				return appendTermJSON(b, t)
			})
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}}\n"...)
}

// appendField appends one CSV/TSV field, quoted exactly when
// encoding/csv would quote it: when it contains the separator, a quote,
// CR or LF, starts with a space character, or is the \. marker.
func appendField(dst []byte, field string, quote *[256]bool) []byte {
	if !fieldNeedsQuotes(field, quote) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

// svQuote marks, per separator, the bytes that force a field into
// quotes.
var svQuote = map[byte]*[256]bool{',': svQuoteTable(','), '\t': svQuoteTable('\t')}

func svQuoteTable(sep byte) *[256]bool {
	var t [256]bool
	for _, c := range []byte{'\n', '\r', '"', sep} {
		t[c] = true
	}
	return &t
}

func fieldNeedsQuotes(field string, quote *[256]bool) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		if quote[field[i]] {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendSV appends the CSV/TSV results formats: a header row of variable
// names, then lexical values (unbound variables serialize empty).
func appendSV(dst []byte, res *sparql.Results, sep byte) []byte {
	quote := svQuote[sep]
	for i, v := range res.Vars {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = appendField(dst, v, quote)
	}
	dst = append(dst, '\n')
	// A name projected twice serializes its last bound column in both
	// places, as a map row would.
	cols := res.ColumnNames()
	fields := jsonenc.NewSpans(res.Len() * len(cols))
	start := len(dst)
	for i := 0; i < res.Len(); i++ {
		if i == presizeAfter {
			dst = jsonenc.Presize(dst, start, i, res.Len())
		}
		row := res.Row(i)
		for c := range cols {
			if c > 0 {
				dst = append(dst, sep)
			}
			if id := cols[c].Cell(row); id != rdf.NoID {
				dst = fields.Append(dst, int64(id), func(b []byte) []byte {
					t, _ := res.Term(id)
					return appendField(b, t.Value, quote)
				})
			}
		}
		dst = append(dst, '\n')
	}
	return dst
}

// DetectGeometryVar returns the first projected variable that binds a
// wktLiteral in any row, or "".
func DetectGeometryVar(res *sparql.Results) string {
	cols := res.ColumnNames()
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		for _, n := range cols {
			if t, ok := res.Term(n.Cell(row)); ok && t.IsGeometry() {
				return n.Name
			}
		}
	}
	return ""
}

// appendGeoJSON appends rows as a GeoJSON FeatureCollection through
// sextant's result encoder: one feature per row binding a parsable
// geometry, every other projected variable a feature property.
func appendGeoJSON(dst []byte, res *sparql.Results, geomVar string) ([]byte, error) {
	if geomVar == "" {
		geomVar = DetectGeometryVar(res)
	}
	if geomVar == "" && res.Len() > 0 {
		return dst, fmt.Errorf("endpoint: no geometry variable in results (vars %v)", res.Vars)
	}
	return sextant.AppendResults(dst, "results", res, geomVar)
}
