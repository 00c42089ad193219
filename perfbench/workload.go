package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// The benchmark generates every input itself from --seed: point
// features on a 0.001-unit grid over a 10000×10000 extent, N-Triples
// batches of new features, and the query streams. Window edges sit on
// half-grid coordinates (…5 in the fourth decimal), so no point ever
// lies on a window boundary and the brute-force oracle below agrees
// with any correct engine without caring how it treats boundaries.

const (
	extentUnits = 10_000_000 // extent side in 0.001-unit grid steps
	nsEE        = "http://extremeearth.eu/ontology#"
	featureNS   = "http://extremeearth.eu/feature/"
	xsdInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	wktLiteral  = "http://www.opengis.net/ont/geosparql#wktLiteral"
	rdfType     = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	geoHasGeom  = "http://www.opengis.net/ont/geosparql#hasGeometry"
	geoAsWKT    = "http://www.opengis.net/ont/geosparql#asWKT"
	triplesPerF = 4 // type, hasGeometry, asWKT, value
)

// features holds generated point features in grid units.
type features struct {
	prefix string // IRI local-name prefix ("b" base, "w" written)
	x, y   []int32
	val    []int16
}

func genFeatures(rng *rand.Rand, prefix string, n int) *features {
	f := &features{prefix: prefix, x: make([]int32, n), y: make([]int32, n), val: make([]int16, n)}
	for i := 0; i < n; i++ {
		f.x[i] = int32(rng.Intn(extentUnits))
		f.y[i] = int32(rng.Intn(extentUnits))
		f.val[i] = int16(rng.Intn(1000))
	}
	return f
}

func (f *features) len() int { return len(f.x) }

func (f *features) iri(i int) string { return featureNS + f.prefix + strconv.Itoa(i) }

func gridStr(v int32) string { return fmt.Sprintf("%d.%03d", v/1000, v%1000) }

// appendNTriples writes features [lo, hi) as N-Triples.
func (f *features) appendNTriples(b *bytes.Buffer, lo, hi int) {
	for i := lo; i < hi; i++ {
		iri := f.iri(i)
		fmt.Fprintf(b, "<%s> <%s> <%sFeature> .\n", iri, rdfType, nsEE)
		fmt.Fprintf(b, "<%s> <%s> <%s/geom> .\n", iri, geoHasGeom, iri)
		fmt.Fprintf(b, "<%s/geom> <%s> \"POINT (%s %s)\"^^<%s> .\n", iri, geoAsWKT, gridStr(f.x[i]), gridStr(f.y[i]), wktLiteral)
		fmt.Fprintf(b, "<%s> <%svalue> \"%d\"^^<%s> .\n", iri, nsEE, f.val[i], xsdInteger)
	}
}

// window is an axis-aligned query rectangle in 0.0001-unit steps, every
// edge an odd multiple of 5 (a half-grid coordinate).
type window struct{ x0, y0, x1, y1 int64 }

func randomWindow(rng *rand.Rand, frac float64) window {
	side := int64(math.Sqrt(frac) * extentUnits) // grid units
	x := int64(rng.Intn(extentUnits - int(side)))
	y := int64(rng.Intn(extentUnits - int(side)))
	return window{x*10 + 5, y*10 + 5, (x+side)*10 + 5, (y+side)*10 + 5}
}

func (w window) contains(x, y int32) bool {
	X, Y := int64(x)*10, int64(y)*10
	return X > w.x0 && X < w.x1 && Y > w.y0 && Y < w.y1
}

func edgeStr(v int64) string { return fmt.Sprintf("%d.%04d", v/10000, v%10000) }

func (w window) wkt() string {
	a, b, c, d := edgeStr(w.x0), edgeStr(w.y0), edgeStr(w.x1), edgeStr(w.y1)
	return fmt.Sprintf("POLYGON ((%s %s, %s %s, %s %s, %s %s, %s %s))", a, b, c, b, c, d, a, d, a, b)
}

// Query kinds. Each has a brute-force oracle over the generated features.
const (
	kindWindow = iota // sfIntersects window, projecting ?f ?wkt ?v
	kindRange         // ee:value range filter, projecting ?f ?v
	kindTopN          // value filter + ORDER BY ?v LIMIT n
	kindGroup         // COUNT GROUP BY ?v over a value range
)

var formats = []string{"json", "csv", "geojson"}

// query is one generated request with everything its oracle needs.
type query struct {
	kind   int
	format string
	win    window
	lo, hi int // value range [lo, hi) for kindRange/kindGroup, lo for kindTopN
	limit  int
	text   string
	path   string // /sparql?query=…&format=…
}

const prefixEE = "PREFIX ee: <" + nsEE + "> "

func (q *query) build() {
	switch q.kind {
	case kindWindow:
		q.text = prefixEE + `SELECT ?f ?wkt ?v WHERE { ?f a ee:Feature . ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt . ?f ee:value ?v . FILTER(geof:sfIntersects(?wkt, "` + q.win.wkt() + `"^^geo:wktLiteral)) }`
	case kindRange:
		q.text = prefixEE + fmt.Sprintf(`SELECT ?f ?v WHERE { ?f ee:value ?v . FILTER(?v >= %d && ?v < %d) }`, q.lo, q.hi)
	case kindTopN:
		q.text = prefixEE + fmt.Sprintf(`SELECT ?f ?v WHERE { ?f ee:value ?v . FILTER(?v >= %d) } ORDER BY ?v LIMIT %d`, q.lo, q.limit)
	case kindGroup:
		q.text = prefixEE + fmt.Sprintf(`SELECT ?v (COUNT(?f) AS ?n) WHERE { ?f ee:value ?v . FILTER(?v >= %d && ?v < %d) } GROUP BY ?v`, q.lo, q.hi)
	}
	q.path = "/sparql?" + url.Values{"query": {q.text}, "format": {q.format}}.Encode()
}

// coldQuery draws a read_cold request: mostly distinct windows of
// 0.1–2% of the extent, a tenth non-spatial value queries.
func coldQuery(rng *rand.Rand) query {
	var q query
	switch r := rng.Float64(); {
	case r < 0.90:
		q = query{kind: kindWindow, win: randomWindow(rng, 0.001+rng.Float64()*0.019)}
		q.format = []string{"json", "json", "csv", "geojson"}[rng.Intn(4)]
	case r < 0.94:
		lo := rng.Intn(990)
		q = query{kind: kindRange, lo: lo, hi: lo + 1 + rng.Intn(10), format: formats[rng.Intn(2)]}
	case r < 0.97:
		q = query{kind: kindTopN, lo: rng.Intn(1000), limit: 10 + rng.Intn(90), format: formats[rng.Intn(2)]}
	default:
		lo := rng.Intn(900)
		q = query{kind: kindGroup, lo: lo, hi: lo + 5 + rng.Intn(95), format: formats[rng.Intn(2)]}
	}
	q.build()
	return q
}

// answer is an oracle result: the exact row count plus, for full
// verification, the canonical row set.
type answer struct {
	rows int
	set  []string // sorted canonical rows (see canonRows)
}

// oracle evaluates q by brute force over the feature sets (the base
// plus written batches, in store order). full also builds the
// canonical row set.
func oracle(q *query, sets []*features, full bool) answer {
	var a answer
	add := func(s string) {
		a.rows++
		if full {
			a.set = append(a.set, s)
		}
	}
	switch q.kind {
	case kindWindow:
		for _, f := range sets {
			for i := range f.x {
				if q.win.contains(f.x[i], f.y[i]) {
					add(f.iri(i))
				}
			}
		}
	case kindRange:
		for _, f := range sets {
			for i, v := range f.val {
				if int(v) >= q.lo && int(v) < q.hi {
					add(f.iri(i))
				}
			}
		}
	case kindTopN:
		var vs []int
		for _, f := range sets {
			for _, v := range f.val {
				if int(v) >= q.lo {
					vs = append(vs, int(v))
				}
			}
		}
		sort.Ints(vs)
		if len(vs) > q.limit {
			vs = vs[:q.limit]
		}
		for _, v := range vs {
			add(strconv.Itoa(v)) // ties make the IRIs ambiguous; the values are not
		}
	case kindGroup:
		counts := map[int]int{}
		for _, f := range sets {
			for _, v := range f.val {
				if int(v) >= q.lo && int(v) < q.hi {
					counts[int(v)]++
				}
			}
		}
		for v, n := range counts {
			add(fmt.Sprintf("%d=%d", v, n))
		}
	}
	sort.Strings(a.set)
	return a
}

// countRows counts result rows without decoding the body: one cheap
// scan per response, for every request.
func countRows(format string, body []byte) int {
	switch format {
	case "csv":
		return bytes.Count(body, []byte{'\n'}) - 1
	case "geojson":
		return bytes.Count(body, []byte(`"type":"Feature"}`))
	default:
		if bytes.Contains(body, []byte(`"bindings":[]`)) {
			return 0
		}
		return bytes.Count(body, []byte("}},{")) + 1
	}
}

// canonRows decodes a response fully into the oracle's canonical row
// form, for the deterministic sample that is verified exactly.
func canonRows(q *query, body []byte) ([]string, error) {
	rows, err := decodeRows(q.format, body)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		switch q.kind {
		case kindWindow, kindRange:
			out = append(out, r["f"])
		case kindTopN:
			out = append(out, r["v"])
		case kindGroup:
			out = append(out, r["v"]+"="+r["n"])
		}
	}
	sort.Strings(out)
	return out, nil
}

func sameRows(a, b []string) bool {
	return len(a) == len(b) && strings.Join(a, "\n") == strings.Join(b, "\n")
}
