package sparql

import (
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Results holds the solutions of a SELECT query as ID rows: one flat
// block of len(Vars) cell IDs per row, NoID marking an unbound
// variable. Positive IDs resolve through the store dictionary the
// results were computed against; negative IDs index a per-result table
// of terms no dictionary holds — computed values such as COUNT, and
// rows merged from several stores. Local terms are never interned into
// the store dictionary, which snapshots persist.
//
// Serializers and the ORDER BY machinery work on the ID rows directly;
// Maps is the one conversion to decoded map rows, for consumers off the
// serving path. The zero value (with Vars set) is an empty result.
type Results struct {
	// Vars is the projection in declaration order.
	Vars []string

	ids      []rdf.ID
	n        int
	dict     *rdf.Dict
	local    []rdf.Term
	localIDs map[rdf.Term]rdf.ID
}

// NewResults returns an empty result over vars whose positive cell IDs
// resolve through dict (nil when every term is local).
func NewResults(vars []string, dict *rdf.Dict) *Results {
	return &Results{Vars: vars, dict: dict}
}

// Len returns the number of result rows.
func (r *Results) Len() int { return r.n }

// Row returns the cell IDs of row i, one per variable in Vars order.
// The slice aliases the result and must not be modified.
func (r *Results) Row(i int) []rdf.ID {
	w := len(r.Vars)
	return r.ids[i*w : (i+1)*w : (i+1)*w]
}

// Term resolves a cell ID; ok is false for NoID (unbound).
func (r *Results) Term(id rdf.ID) (rdf.Term, bool) {
	switch {
	case id < 0:
		return r.local[-id-1], true
	case id == rdf.NoID || r.dict == nil:
		return rdf.Term{}, false
	default:
		return r.dict.Decode(id)
	}
}

// Get returns the term bound to variable v in row i.
func (r *Results) Get(i int, v string) (rdf.Term, bool) {
	for c, name := range r.Vars {
		if name == v {
			return r.Term(r.ids[i*len(r.Vars)+c])
		}
	}
	return rdf.Term{}, false
}

// Local returns the per-result cell ID of t, adding it to the local
// table on first use.
func (r *Results) Local(t rdf.Term) rdf.ID {
	if id, ok := r.localIDs[t]; ok {
		return id
	}
	if r.localIDs == nil {
		r.localIDs = make(map[rdf.Term]rdf.ID)
	}
	r.local = append(r.local, t)
	id := -rdf.ID(len(r.local))
	r.localIDs[t] = id
	return id
}

// AppendRow appends one row of cell IDs (len(Vars) of them).
func (r *Results) AppendRow(ids ...rdf.ID) {
	r.ids = append(r.ids, ids...)
	r.n++
}

// AppendMap appends a decoded map row, holding its terms in the local
// table; variables missing from the map are unbound.
func (r *Results) AppendMap(row map[string]rdf.Term) {
	for _, v := range r.Vars {
		id := rdf.NoID
		if t, ok := row[v]; ok {
			id = r.Local(t)
		}
		r.ids = append(r.ids, id)
	}
	r.n++
}

// appendProjected appends the projection of a slot row: cell c takes
// slot slots[c], or NoID for a projected variable outside the BGP.
func (r *Results) appendProjected(slots []int, row rdf.Row) {
	for _, sl := range slots {
		id := rdf.NoID
		if sl >= 0 {
			id = row[sl]
		}
		r.ids = append(r.ids, id)
	}
	r.n++
}

// AppendResults appends every row of src, matching columns by variable
// name. Rows resolved through a different dictionary are re-addressed
// as local terms.
func (r *Results) AppendResults(src *Results) {
	cols := make([]int, len(r.Vars))
	for c, v := range r.Vars {
		cols[c] = -1
		for sc, sv := range src.Vars {
			if sv == v {
				cols[c] = sc
				break
			}
		}
	}
	for i := 0; i < src.n; i++ {
		row := src.Row(i)
		for _, sc := range cols {
			id := rdf.NoID
			if sc >= 0 {
				id = row[sc]
			}
			if id != rdf.NoID && (id < 0 || src.dict != r.dict) {
				t, _ := src.Term(id)
				id = r.Local(t)
			}
			r.ids = append(r.ids, id)
		}
		r.n++
	}
}

// NameColumns is one distinct variable name of a projection and the
// columns projecting it.
type NameColumns struct {
	Name string
	Cols []int
}

// Cell returns the name's binding in row: its last bound column, the
// term a variable-to-term map of the row would hold.
func (n NameColumns) Cell(row []rdf.ID) rdf.ID {
	for i := len(n.Cols) - 1; i >= 0; i-- {
		if id := row[n.Cols[i]]; id != rdf.NoID {
			return id
		}
	}
	return rdf.NoID
}

// SortedNames groups the columns by variable name, in sorted name
// order: the member order of a JSON object built from a map row.
func (r *Results) SortedNames() []NameColumns {
	var out []NameColumns
	at := map[string]int{}
	for c, v := range r.Vars {
		i, ok := at[v]
		if !ok {
			i = len(out)
			at[v] = i
			out = append(out, NameColumns{Name: v})
		}
		out[i].Cols = append(out[i].Cols, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ColumnNames returns, for each column, the NameColumns of its
// variable.
func (r *Results) ColumnNames() []NameColumns {
	out := make([]NameColumns, len(r.Vars))
	for _, n := range r.SortedNames() {
		for _, c := range n.Cols {
			out[c] = n
		}
	}
	return out
}

// Maps decodes the rows into variable → term maps, omitting unbound
// variables: the map-row view for consumers off the serving path.
func (r *Results) Maps() []map[string]rdf.Term {
	out := make([]map[string]rdf.Term, r.n)
	for i := range out {
		m := make(map[string]rdf.Term, len(r.Vars))
		for c, id := range r.Row(i) {
			if t, ok := r.Term(id); ok {
				m[r.Vars[c]] = t
			}
		}
		out[i] = m
	}
	return out
}

// Column returns the terms bound to the named variable across all rows
// (the zero Term where unbound).
func (r *Results) Column(name string) []rdf.Term {
	out := make([]rdf.Term, 0, r.n)
	for i := 0; i < r.n; i++ {
		t, _ := r.Get(i, name)
		out = append(out, t)
	}
	return out
}

// String renders a compact table for logs and the example programs.
func (r *Results) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Vars, "\t") + "\n")
	for i := 0; i < r.n; i++ {
		for c := range r.Vars {
			if c > 0 {
				b.WriteByte('\t')
			}
			t, _ := r.Get(i, r.Vars[c])
			b.WriteString(t.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Sort stably orders the rows by the named variable with one key
// computation per row (numeric when both keys parse as numbers,
// lexical otherwise; unbound sorts as the empty string).
func (r *Results) Sort(by string, desc bool) {
	keys := make([]sortKey, r.n)
	for i := range keys {
		t, _ := r.Get(i, by)
		keys[i] = makeSortKey(t)
	}
	r.permute(sortedPerm(keys, desc))
}

// permute reorders the rows so that row i becomes old row perm[i].
func (r *Results) permute(perm []int) {
	w := len(r.Vars)
	ids := make([]rdf.ID, 0, len(perm)*w)
	for _, pi := range perm {
		ids = append(ids, r.ids[pi*w:(pi+1)*w]...)
	}
	r.ids, r.n = ids, len(perm)
}

// Dedup removes duplicate rows, keeping first occurrences. Rows compare
// by their terms, so equal terms under different cell IDs are
// duplicates too.
func (r *Results) Dedup() {
	seen := make(map[string]bool, r.n)
	var key strings.Builder
	var keep []int
	for i := 0; i < r.n; i++ {
		key.Reset()
		for _, id := range r.Row(i) {
			t, _ := r.Term(id)
			key.WriteString(t.String())
			key.WriteByte('\x00')
		}
		k := key.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		keep = append(keep, i)
	}
	r.permute(keep)
}

// slice keeps rows [lo, hi).
func (r *Results) slice(lo, hi int) {
	w := len(r.Vars)
	r.ids = r.ids[lo*w : hi*w]
	r.n = hi - lo
}

// ApplyOffsetLimit drops the first Offset rows and truncates to Limit
// (solution-modifier order: OFFSET before LIMIT). It is shared by the
// evaluators here and by stores that merge partial results themselves
// (the partitioned geostore).
func ApplyOffsetLimit(res *Results, q *Query) {
	lo, hi := q.Offset, res.n
	if lo > hi {
		lo = hi
	}
	if q.Limit > 0 && hi-lo > q.Limit {
		hi = lo + q.Limit
	}
	res.slice(lo, hi)
}
