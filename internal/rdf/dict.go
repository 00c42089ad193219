package rdf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ID is a dictionary-encoded term identifier. IDs are dense, starting at 1;
// 0 is reserved as "no term".
type ID int64

// NoID is the zero, invalid identifier.
const NoID ID = 0

// NumKind classifies a term's precomputed FILTER value (see
// Term.NumericValue).
type NumKind uint8

const (
	// NotNumeric terms compare by their lexical form.
	NotNumeric NumKind = iota
	// Numeric terms compare by their float64 value.
	Numeric
	// Boolean terms carry 1 (true) or 0 (false).
	Boolean
)

// NumericValue returns the value SPARQL FILTER comparisons use for t:
// Numeric for a typed, non-WKT literal whose lexical form parses as a
// float, else Boolean for an xsd:boolean literal, else NotNumeric.
func (t Term) NumericValue() (float64, NumKind) {
	if t.Kind != Literal || t.Datatype == "" || t.Datatype == WKTLiteral {
		return 0, NotNumeric
	}
	if f, err := t.Float(); err == nil {
		return f, Numeric
	}
	if t.Datatype == XSDBoolean {
		if t.Value == "true" {
			return 1, Boolean
		}
		return 0, Boolean
	}
	return 0, NotNumeric
}

// dictEntry is one interned term with its FILTER value computed once at
// intern time. The term's fields are stored flat so the value costs 8
// bytes per term over a bare Term.
type dictEntry struct {
	value, datatype, lang string
	num                   float64
	kind                  TermKind
	nk                    NumKind
}

func newDictEntry(t Term) dictEntry {
	num, nk := t.NumericValue()
	return dictEntry{value: t.Value, datatype: t.Datatype, lang: t.Lang, num: num, kind: t.Kind, nk: nk}
}

func (e *dictEntry) term() Term {
	return Term{Kind: e.kind, Value: e.value, Datatype: e.datatype, Lang: e.lang}
}

// Chunk k of the ID-ordered term array holds firstChunk<<k entries, so
// the array grows without ever moving an entry and dictChunks chunks
// address more IDs than memory can hold.
const (
	firstChunkBits = 8
	firstChunk     = 1 << firstChunkBits
	dictChunks     = 48
)

// chunkOf maps a zero-based term index to its chunk and offset.
func chunkOf(i int64) (k int, off int64) {
	k = bits.Len64(uint64(i>>firstChunkBits)+1) - 1
	return k, i - firstChunk*(1<<k-1)
}

// Dict interns Terms to dense integer IDs and back. It is safe for
// concurrent use. Decoding is lock-free: IDs are never reused, so the
// ID-ordered term array only grows, in chunks that never move, and a
// term becomes visible by publishing the count after its entry is
// written. Encode and Lookup take the mutex guarding the reverse map.
type Dict struct {
	mu     sync.RWMutex
	byTerm map[Term]ID

	n      atomic.Int64 // published term count
	chunks [dictChunks]atomic.Pointer[[]dictEntry]
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byTerm: make(map[Term]ID)}
}

// Encode interns the term, returning its ID (allocating one if new).
func (d *Dict) Encode(t Term) ID {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	n := d.n.Load()
	*d.slot(n) = newDictEntry(t)
	id = ID(n + 1)
	d.byTerm[t] = id
	d.n.Store(n + 1)
	return id
}

// slot returns the entry for zero-based index i, allocating its chunk
// when i is the chunk's first index. Callers hold mu.
func (d *Dict) slot(i int64) *dictEntry {
	k, off := chunkOf(i)
	c := d.chunks[k].Load()
	if c == nil {
		chunk := make([]dictEntry, firstChunk<<k)
		c = &chunk
		d.chunks[k].Store(c)
	}
	return &(*c)[off]
}

// entry returns the published entry of id, or nil for an invalid ID.
func (d *Dict) entry(id ID) *dictEntry {
	if id <= 0 || int64(id) > d.n.Load() {
		return nil
	}
	k, off := chunkOf(int64(id) - 1)
	return &(*d.chunks[k].Load())[off]
}

// Lookup returns the ID for t without interning; ok is false if absent.
func (d *Dict) Lookup(t Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byTerm[t]
	return id, ok
}

// Decode returns the term for an ID; ok is false for invalid IDs. It
// takes no lock.
func (d *Dict) Decode(id ID) (Term, bool) {
	e := d.entry(id)
	if e == nil {
		return Term{}, false
	}
	return e.term(), true
}

// MustDecode is Decode that panics on an invalid ID; the store only ever
// holds IDs it allocated, so an invalid ID is a programming error.
func (d *Dict) MustDecode(id ID) Term {
	t, ok := d.Decode(id)
	if !ok {
		panic("rdf: invalid dictionary ID")
	}
	return t
}

// NumericValue returns the precomputed Term.NumericValue of id without
// decoding the term; invalid IDs are NotNumeric.
func (d *Dict) NumericValue(id ID) (float64, NumKind) {
	e := d.entry(id)
	if e == nil {
		return 0, NotNumeric
	}
	return e.num, e.nk
}

// Len returns the number of interned terms.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Terms returns a copy of the interned terms in ID order (terms[i] has
// ID i+1). Snapshot writers persist this as the dictionary segment.
func (d *Dict) Terms() []Term {
	out := make([]Term, 0, d.Len())
	d.Range(func(_ ID, t Term) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Range calls fn with every (ID, Term) pair in ID order until fn returns
// false. The iteration covers the terms published when it starts;
// terms interned during the iteration may or may not be visited.
func (d *Dict) Range(fn func(ID, Term) bool) {
	n := d.n.Load()
	for k := 0; int64(firstChunk*(1<<k-1)) < n; k++ {
		c := *d.chunks[k].Load()
		base := int64(firstChunk * (1<<k - 1))
		for off := range c {
			i := base + int64(off)
			if i >= n {
				return
			}
			if !fn(ID(i+1), c[off].term()) {
				return
			}
		}
	}
}

// adopt replaces the contents of an empty dictionary with terms (IDs
// 1..len(terms) in order) and their prebuilt reverse map, computing each
// term's FILTER value. Used by snapshot recovery, which constructs the
// map off-thread.
func (d *Dict) adopt(terms []Term, byTerm map[Term]ID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.n.Load(); n != 0 {
		return fmt.Errorf("rdf: dictionary already holds %d terms", n)
	}
	for i, t := range terms {
		*d.slot(int64(i)) = newDictEntry(t)
	}
	d.byTerm = byTerm
	d.n.Store(int64(len(terms)))
	return nil
}

// TextBytes returns the total text bytes held by interned terms (value
// + datatype + language tag), the allocator-independent part of the
// dictionary's memory footprint. O(terms): callers scraping it per
// metrics read should cache the walk (see telemetry prepare hooks).
func (d *Dict) TextBytes() int64 {
	var n int64
	d.Range(func(_ ID, t Term) bool {
		n += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
		return true
	})
	return n
}
