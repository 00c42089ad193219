package endpoint_test

import (
	"bytes"
	"testing"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Fixture byte format for FuzzWriteResults: a variable count byte, the
// variable names, the GeoJSON geometry variable, then row-major cells
// until the input runs out. A cell is a kind byte (cellKinds index in
// the low 3 bits; 0x08 holds the term in the result's local table
// instead of the store dictionary) followed by its strings. Strings are
// a length byte and that many bytes, truncated at the end of input.
const localBit = 0x08

type fixtureReader struct{ data []byte }

func (r *fixtureReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fixtureReader) str() string {
	n := int(r.byte())
	if n > len(r.data) {
		n = len(r.data)
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// decodeFixture builds ID-row results over a fresh dictionary.
func decodeFixture(data []byte) (*sparql.Results, string) {
	r := &fixtureReader{data: data}
	vars := make([]string, r.byte()%5)
	for i := range vars {
		vars[i] = r.str()
	}
	geomVar := r.str()
	dict := rdf.NewDict()
	res := sparql.NewResults(vars, dict)
	for len(vars) > 0 && len(r.data) > 0 {
		row := make([]rdf.ID, len(vars))
		for c := range row {
			kind := r.byte()
			var t rdf.Term
			switch kind & 7 {
			case 0:
				continue
			case 1:
				t = rdf.NewIRI(r.str())
			case 2:
				t = rdf.NewBlank(r.str())
			case 3:
				t = rdf.NewLiteral(r.str())
			case 4:
				t = rdf.NewTypedLiteral(r.str(), r.str())
			case 5:
				t = rdf.NewLangLiteral(r.str(), r.str())
			default:
				t = rdf.NewWKTLiteral(r.str())
			}
			if kind&localBit != 0 {
				row[c] = res.Local(t)
			} else {
				row[c] = dict.Encode(t)
			}
		}
		res.AppendRow(row...)
	}
	return res, geomVar
}

// encodeFixture is decodeFixture's inverse for seed inputs.
func encodeFixture(res *sparql.Results, geomVar string, local bool) []byte {
	str := func(b []byte, s string) []byte { return append(append(b, byte(len(s))), s...) }
	b := []byte{byte(len(res.Vars))}
	for _, v := range res.Vars {
		b = str(b, v)
	}
	b = str(b, geomVar)
	var flag byte
	if local {
		flag = localBit
	}
	for _, row := range res.Maps() {
		for _, v := range res.Vars {
			t, ok := row[v]
			switch {
			case !ok:
				b = append(b, 0)
			case t.Kind == rdf.IRI:
				b = str(append(b, 1|flag), t.Value)
			case t.Kind == rdf.Blank:
				b = str(append(b, 2|flag), t.Value)
			case t.IsGeometry():
				b = str(append(b, 6|flag), t.Value)
			case t.Lang != "":
				b = str(str(append(b, 5|flag), t.Value), t.Lang)
			case t.Datatype != "":
				b = str(str(append(b, 4|flag), t.Value), t.Datatype)
			default:
				b = str(append(b, 3|flag), t.Value)
			}
		}
	}
	return b
}

// FuzzWriteResults checks every hand-rolled encoder against the
// reflective oracle it replaced: same bytes, or an error from both.
func FuzzWriteResults(f *testing.F) {
	for _, c := range goldenCases() {
		res := evalGolden(f, c)
		f.Add(encodeFixture(res, c.geomVar, false))
		f.Add(encodeFixture(res, c.geomVar, true))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, geomVar := decodeFixture(data)
		for _, format := range goldenFormats {
			var got, want bytes.Buffer
			gerr := endpoint.WriteResults(&got, format, res, geomVar)
			werr := oracleWriteResults(&want, format, res, geomVar)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%v: error %v, oracle error %v", format, gerr, werr)
			}
			if gerr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v: output differs from oracle\n got: %q\nwant: %q", format, got.Bytes(), want.Bytes())
			}
		}
	})
}
