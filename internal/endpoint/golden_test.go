package endpoint_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// update rewrites the golden files from the current encoders:
//
//	go test ./internal/endpoint -run TestWriteResultsGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

const ex = "http://ex/"

// goldenCase is one result fixture: a store and the SELECT query run
// against it with the slot executor, serialized in every format.
type goldenCase struct {
	name    string
	triples []rdf.Triple
	query   string
	geomVar string
}

// goldenCases covers the serialization edge cases byte for byte: JSON
// escaping of &<>, U+2028, control bytes and invalid UTF-8; typed,
// language-tagged and plain literals and blank nodes; CSV quoting
// triggers; unbound variables; computed COUNT values; and the GeoJSON
// geometry auto-detection, unparsable-WKT skip and row/<i> id fallback.
func goldenCases() []goldenCase {
	p := rdf.NewIRI(ex + "p")
	geo := rdf.NewIRI(ex + "geom")
	name := rdf.NewIRI(ex + "name")
	wkt := rdf.NewWKTLiteral
	return []goldenCase{
		{
			name: "terms",
			triples: []rdf.Triple{
				rdf.NewTriple(rdf.NewIRI(ex+"a&b<c>d"), p, rdf.NewLiteral("plain")),
				rdf.NewTriple(rdf.NewIRI(ex+"line\u2028sep\u2029end"), p, rdf.NewTypedLiteral("1.5", rdf.XSDDouble)),
				rdf.NewTriple(rdf.NewIRI(ex+"ctl\x01\x1f"), p, rdf.NewLangLiteral("bonjour", "fr")),
				rdf.NewTriple(rdf.NewIRI(ex+"bad\xffutf8\xc3"), p, rdf.NewBlank("b0")),
				rdf.NewTriple(rdf.NewIRI(ex+`quote"back\slash`), p, rdf.NewLiteral("tab\there, \"quoted\", comma")),
				rdf.NewTriple(rdf.NewIRI(ex+"lead"), p, rdf.NewLiteral(" leading space")),
				rdf.NewTriple(rdf.NewIRI(ex+"dot"), p, rdf.NewLiteral(`\.`)),
				rdf.NewTriple(rdf.NewIRI(ex+"crlf"), p, rdf.NewLiteral("a\r\nb\nc")),
				rdf.NewTriple(rdf.NewIRI(ex+"empty"), p, rdf.NewLiteral("")),
				rdf.NewTriple(rdf.NewIRI(ex+"int"), p, rdf.NewIntLiteral(5)),
				rdf.NewTriple(rdf.NewIRI(ex+"str"), p, rdf.NewTypedLiteral("5", rdf.XSDString)),
				rdf.NewTriple(rdf.NewBlank("subj"), p, rdf.NewLiteral("é ünïcode ☃")),
			},
			query: `SELECT ?s ?o ?none WHERE { ?s <http://ex/p> ?o }`,
		},
		{
			name: "geo",
			triples: []rdf.Triple{
				rdf.NewTriple(rdf.NewIRI(ex+"f1"), geo, wkt("POINT (1 2)")),
				rdf.NewTriple(rdf.NewIRI(ex+"f1"), name, rdf.NewLiteral("one")),
				rdf.NewTriple(rdf.NewBlank("f2"), geo, wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 3 2, 3 3, 2 2))")),
				rdf.NewTriple(rdf.NewBlank("f2"), name, rdf.NewLiteral("two <&>")),
				rdf.NewTriple(rdf.NewIRI(ex+"f3"), geo, wkt("POINT (oops)")),
				rdf.NewTriple(rdf.NewIRI(ex+"f3"), name, rdf.NewLiteral("three")),
				rdf.NewTriple(rdf.NewIRI(ex+"f4"), geo, wkt("LINESTRING (0 0, 0.0000001 2000000000000000000000, -3.25 4.5)")),
				rdf.NewTriple(rdf.NewIRI(ex+"f4"), name, rdf.NewLangLiteral("four", "en")),
				rdf.NewTriple(rdf.NewIRI(ex+"f5"), geo, wkt("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))")),
				rdf.NewTriple(rdf.NewIRI(ex+"f5"), name, rdf.NewIRI(ex+"named\u00a0space")),
				rdf.NewTriple(rdf.NewIRI(ex+"f6"), geo, rdf.NewLiteral("POINT (7 8)")),
				rdf.NewTriple(rdf.NewIRI(ex+"f6"), name, rdf.NewBlank("nm")),
			},
			query: `SELECT ?name ?f ?wkt ?none WHERE { ?f <http://ex/geom> ?wkt . ?f <http://ex/name> ?name }`,
		},
		{
			name: "geo_explicit",
			triples: []rdf.Triple{
				rdf.NewTriple(rdf.NewIRI(ex+"f1"), geo, wkt("POINT (1 2)")),
				rdf.NewTriple(rdf.NewIRI(ex+"f6"), geo, rdf.NewLiteral("POINT (7 8)")),
				rdf.NewTriple(rdf.NewIRI(ex+"f7"), geo, rdf.NewIRI(ex+"not-a-literal")),
				rdf.NewTriple(rdf.NewIRI(ex+"f8"), geo, wkt("ENVELOPE (1.5, 4, 9.25, -2)")),
			},
			query:   `SELECT ?f ?wkt WHERE { ?f <http://ex/geom> ?wkt }`,
			geomVar: "wkt",
		},
		{
			name: "count",
			triples: []rdf.Triple{
				rdf.NewTriple(rdf.NewIRI(ex+"s1"), p, rdf.NewLiteral("x")),
				rdf.NewTriple(rdf.NewIRI(ex+"s2"), p, rdf.NewLiteral("x")),
				rdf.NewTriple(rdf.NewIRI(ex+"s3"), p, rdf.NewIntLiteral(7)),
			},
			query: `SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <http://ex/p> ?o } GROUP BY ?o`,
		},
		{
			name: "empty",
			triples: []rdf.Triple{
				rdf.NewTriple(rdf.NewIRI(ex+"s1"), p, rdf.NewLiteral("x")),
			},
			query: `SELECT ?s ?wkt WHERE { ?s <http://ex/absent> ?wkt }`,
		},
	}
}

// evalGolden runs the case's query and returns its results.
func evalGolden(t testing.TB, c goldenCase) *sparql.Results {
	t.Helper()
	st := rdf.NewStore()
	for _, tr := range c.triples {
		st.Add(tr.S, tr.P, tr.O)
	}
	q, err := sparql.Parse(c.query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sparql.Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var goldenFormats = []endpoint.Format{endpoint.FormatJSON, endpoint.FormatCSV, endpoint.FormatTSV, endpoint.FormatGeoJSON}

// renderGolden serializes res in format f; an encoder error is recorded
// in the golden output instead of the body.
func renderGolden(f endpoint.Format, res *sparql.Results, geomVar string) []byte {
	var buf bytes.Buffer
	if err := endpoint.WriteResults(&buf, f, res, geomVar); err != nil {
		return []byte("error: " + err.Error() + "\n")
	}
	return buf.Bytes()
}

func TestWriteResultsGolden(t *testing.T) {
	for _, c := range goldenCases() {
		res := evalGolden(t, c)
		for _, f := range goldenFormats {
			path := filepath.Join("testdata", "golden", c.name+"."+f.String())
			got := renderGolden(f, res, c.geomVar)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: output differs from golden\n got: %q\nwant: %q", path, got, want)
			}
		}
	}
}
