package rdf

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestChunkOfCoversIndexesContiguously(t *testing.T) {
	wantK, wantOff := 0, int64(0)
	for i := int64(0); i < firstChunk*20; i++ {
		k, off := chunkOf(i)
		if k != wantK || off != wantOff {
			t.Fatalf("chunkOf(%d) = (%d, %d), want (%d, %d)", i, k, off, wantK, wantOff)
		}
		wantOff++
		if wantOff == firstChunk<<wantK {
			wantK, wantOff = wantK+1, 0
		}
	}
}

func TestTermNumericValue(t *testing.T) {
	cases := []struct {
		t    Term
		num  float64
		kind NumKind
	}{
		{NewTypedLiteral("01", XSDInteger), 1, Numeric},
		{NewTypedLiteral("1e3", XSDDouble), 1000, Numeric},
		{NewTypedLiteral("+5", XSDInteger), 5, Numeric},
		{NewTypedLiteral("-0", XSDInteger), 0, Numeric},
		{NewTypedLiteral(" 5", XSDInteger), 0, NotNumeric},
		{NewTypedLiteral("5", XSDString), 5, Numeric},
		{NewLangLiteral("5", "en"), 0, NotNumeric},
		{NewLiteral("5"), 0, NotNumeric},
		{NewIRI("5"), 0, NotNumeric},
		{NewBoolLiteral(true), 1, Boolean},
		{NewBoolLiteral(false), 0, Boolean},
		{NewTypedLiteral("1", XSDBoolean), 1, Numeric},
		{NewWKTLiteral("5"), 0, NotNumeric},
	}
	for _, c := range cases {
		num, kind := c.t.NumericValue()
		if kind != c.kind || (kind != NotNumeric && num != c.num) {
			t.Errorf("%v: got (%v, %v), want (%v, %v)", c.t, num, kind, c.num, c.kind)
		}
	}
	if num, kind := NewTypedLiteral("NaN", XSDDouble).NumericValue(); kind != Numeric || !math.IsNaN(num) {
		t.Errorf("NaN: got (%v, %v)", num, kind)
	}
	if num, kind := NewTypedLiteral("INF", XSDDouble).NumericValue(); kind != Numeric || !math.IsInf(num, 1) {
		t.Errorf("INF: got (%v, %v)", num, kind)
	}
}

func TestDictNumericValueByID(t *testing.T) {
	d := NewDict()
	seven := d.Encode(NewIntLiteral(7))
	iri := d.Encode(NewIRI("http://example.org/7"))
	if num, kind := d.NumericValue(seven); kind != Numeric || num != 7 {
		t.Errorf("NumericValue(7) = (%v, %v)", num, kind)
	}
	if _, kind := d.NumericValue(iri); kind != NotNumeric {
		t.Errorf("IRI kind = %v", kind)
	}
	for _, id := range []ID{NoID, -1, 3} {
		if _, kind := d.NumericValue(id); kind != NotNumeric {
			t.Errorf("invalid ID %d kind = %v", id, kind)
		}
	}
	// Snapshot adoption computes the same values as interning.
	s := NewStore()
	if err := s.InstallSnapshot([]Term{NewIntLiteral(7), NewBoolLiteral(true)}, nil); err != nil {
		t.Fatal(err)
	}
	if num, kind := s.Dict().NumericValue(1); kind != Numeric || num != 7 {
		t.Errorf("adopted NumericValue(1) = (%v, %v)", num, kind)
	}
	if num, kind := s.Dict().NumericValue(2); kind != Boolean || num != 1 {
		t.Errorf("adopted NumericValue(2) = (%v, %v)", num, kind)
	}
}

// TestDictLockFreeRace runs Encode, Decode, NumericValue, Range, Terms
// and snapshot adoption concurrently; run it under -race. Readers
// decode every ID a writer has returned, including IDs published across
// chunk boundaries while the reader was running.
func TestDictLockFreeRace(t *testing.T) {
	const (
		writers = 2
		perW    = 3 * firstChunk // spans the first chunk boundaries
	)
	d := NewDict()
	term := func(w, i int) Term { return NewTypedLiteral(fmt.Sprint(w*perW+i), XSDInteger) }
	published := make(chan ID, writers*perW)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				published <- d.Encode(term(w, i))
			}
		}(w)
	}
	// A decoder that chases the writers: every ID it receives was just
	// published, often as the first entry of a new chunk.
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for id := range published {
			tm, ok := d.Decode(id)
			if !ok {
				t.Errorf("Decode(%d) failed right after Encode", id)
				return
			}
			num, kind := d.NumericValue(id)
			if want, _ := tm.Float(); kind != Numeric || num != want {
				t.Errorf("NumericValue(%d) = (%v, %v), term %v", id, num, kind, tm)
			}
		}
	}()
	// Range and Terms walk stable prefixes while chunks are added.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 20; i++ {
			prev := ID(0)
			d.Range(func(id ID, tm Term) bool {
				if id != prev+1 || tm.Kind != Literal {
					t.Errorf("Range visited %d (%v) after %d", id, tm, prev)
					return false
				}
				prev = id
				return true
			})
			for j, tm := range d.Terms() {
				if got := d.MustDecode(ID(j + 1)); got != tm {
					t.Errorf("Terms()[%d] = %v, Decode = %v", j, tm, got)
				}
			}
		}
	}()
	// Snapshot adoption into other stores runs beside the shared dict.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 4; i++ {
			s := NewStore()
			terms := d.Terms()
			if err := s.InstallSnapshot(terms, nil); err != nil {
				t.Error(err)
				return
			}
			if s.Dict().Len() != len(terms) {
				t.Errorf("adopted %d terms, want %d", s.Dict().Len(), len(terms))
			}
		}
	}()
	wg.Wait()
	close(published)
	readers.Wait()
	if d.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d", d.Len(), writers*perW)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			id, ok := d.Lookup(term(w, i))
			if !ok || d.MustDecode(id) != term(w, i) {
				t.Fatalf("term %d/%d lost", w, i)
			}
		}
	}
}
