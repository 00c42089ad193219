// Package federate implements the federation engine of Challenge C3: the
// Semagrow system extended to manage federations of big geospatial data
// sources and answer geospatial analytical queries across them.
//
// A Federation holds endpoints (each a geospatial RDF store wrapped with
// source metadata and a simulated network profile). Query answering has
// the classic three phases:
//
//  1. Source selection — prune endpoints whose predicate vocabulary
//     cannot satisfy the query or whose spatial extent is disjoint from
//     the query's spatial filters (the E9 ablation toggles this off).
//  2. Parallel sub-query execution against surviving endpoints.
//  3. Merge with global ORDER BY / LIMIT.
//
// Data is horizontally partitioned (every feature lives wholly in one
// source), so merging is union, as in the paper's TEP-federation scenario
// (Challenge A1: the Food Security and Polar platforms are federated,
// each holding its own thematic layers).
package federate

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/sparql"
)

// SourceMeta describes an endpoint's content for source selection.
type SourceMeta struct {
	// Extent is the spatial bounding box of all geometries at the source.
	Extent geom.Rect
	// Predicates is the set of predicate IRIs present.
	Predicates map[string]bool
	// TripleCount is the source size (used for cost ranking in logs).
	TripleCount int
}

// Endpoint is a queryable federation member.
type Endpoint interface {
	// Name identifies the endpoint in plans and logs.
	Name() string
	// Metadata returns the source description used for selection.
	Metadata() SourceMeta
	// Query evaluates the query at the source.
	Query(q *sparql.Query) (*sparql.Results, error)
}

// StoreEndpoint wraps a geostore.Store as an endpoint with a simulated
// per-request network latency (the DIAS/TEP links of the paper).
type StoreEndpoint struct {
	name    string
	store   *geostore.Store
	latency time.Duration
}

// NewStoreEndpoint wraps store; latency is added to every Query call.
func NewStoreEndpoint(name string, store *geostore.Store, latency time.Duration) *StoreEndpoint {
	return &StoreEndpoint{name: name, store: store, latency: latency}
}

// Name implements Endpoint.
func (e *StoreEndpoint) Name() string { return e.name }

// Store exposes the wrapped store (for loading).
func (e *StoreEndpoint) Store() *geostore.Store { return e.store }

// Metadata implements Endpoint by scanning the store's triples once.
func (e *StoreEndpoint) Metadata() SourceMeta {
	meta := SourceMeta{Predicates: make(map[string]bool)}
	first := true
	for _, t := range e.store.RDF().Triples() {
		meta.TripleCount++
		meta.Predicates[t.P.Value] = true
		if t.O.IsGeometry() {
			g, err := geom.ParseWKT(t.O.Value)
			if err != nil {
				continue
			}
			if first {
				meta.Extent = g.Bounds()
				first = false
			} else {
				meta.Extent = meta.Extent.Union(g.Bounds())
			}
		}
	}
	return meta
}

// Query implements Endpoint.
func (e *StoreEndpoint) Query(q *sparql.Query) (*sparql.Results, error) {
	if e.latency > 0 {
		time.Sleep(e.latency)
	}
	return e.store.Query(q)
}

// member caches an endpoint with its metadata.
type member struct {
	ep   Endpoint
	meta SourceMeta
}

// Federation is a set of endpoints queried as one virtual store.
type Federation struct {
	mu      sync.RWMutex
	members []member
}

// New returns an empty federation.
func New() *Federation { return &Federation{} }

// Register adds an endpoint, snapshotting its metadata. Register after
// loading the endpoint's data (metadata is not refreshed).
func (f *Federation) Register(ep Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = append(f.members, member{ep: ep, meta: ep.Metadata()})
}

// Size returns the number of registered endpoints.
func (f *Federation) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.members)
}

// Options tunes query execution.
type Options struct {
	// DisableSourceSelection sends every sub-query to every endpoint (the
	// E9 baseline).
	DisableSourceSelection bool
}

// Stats reports how a federated query executed.
type Stats struct {
	// Candidates is the number of registered endpoints.
	Candidates int
	// Queried is how many endpoints received the sub-query.
	Queried int
	// PrunedByPredicate and PrunedBySpace count selection decisions.
	PrunedByPredicate int
	PrunedBySpace     int
}

// QueryString parses and runs a federated query with default options.
func (f *Federation) QueryString(qs string) (*sparql.Results, Stats, error) {
	q, err := sparql.Parse(qs)
	if err != nil {
		return nil, Stats{}, err
	}
	return f.Query(q, Options{})
}

// Query runs the query across the federation.
func (f *Federation) Query(q *sparql.Query, opts Options) (*sparql.Results, Stats, error) {
	f.mu.RLock()
	members := append([]member(nil), f.members...)
	f.mu.RUnlock()

	stats := Stats{Candidates: len(members)}
	selected := make([]member, 0, len(members))
	if opts.DisableSourceSelection {
		selected = members
	} else {
		preds := constantPredicates(q)
		spatial := sparql.ExtractSpatialFilters(q)
		for _, m := range members {
			if !hasAllPredicates(m.meta, preds) {
				stats.PrunedByPredicate++
				continue
			}
			if pruneBySpace(m.meta, spatial) {
				stats.PrunedBySpace++
				continue
			}
			selected = append(selected, m)
		}
	}
	stats.Queried = len(selected)

	type subResult struct {
		res *sparql.Results
		err error
	}
	results := make([]subResult, len(selected))
	var wg sync.WaitGroup
	for i, m := range selected {
		wg.Add(1)
		go func(i int, m member) {
			defer wg.Done()
			local := *q
			local.Limit = 0 // global modifiers applied at the mediator
			r, err := m.ep.Query(&local)
			if err != nil {
				err = fmt.Errorf("federate: endpoint %s: %w", m.ep.Name(), err)
			}
			results[i] = subResult{r, err}
		}(i, m)
	}
	wg.Wait()

	// Members intern terms in their own dictionaries, so the merged rows
	// hold every term in the result's local table.
	var merged *sparql.Results
	for _, sr := range results {
		if sr.err != nil {
			return nil, stats, sr.err
		}
		if merged == nil {
			vars := q.Vars
			if len(vars) == 0 {
				vars = sr.res.Vars
			}
			merged = sparql.NewResults(vars, nil)
		}
		merged.AppendResults(sr.res)
	}
	if merged == nil {
		merged = sparql.NewResults(q.Vars, nil)
	}
	if q.OrderBy != "" {
		merged.Sort(q.OrderBy, q.OrderDesc)
	}
	sparql.ApplyOffsetLimit(merged, &sparql.Query{Limit: q.Limit})
	return merged, stats, nil
}

// constantPredicates collects the concrete predicate IRIs of the query's
// patterns; a source lacking any of them cannot contribute complete BGP
// solutions under horizontal partitioning.
func constantPredicates(q *sparql.Query) []string {
	var out []string
	for _, p := range q.Patterns {
		if !p.P.IsVar() {
			out = append(out, p.P.Term.Value)
		}
	}
	return out
}

func hasAllPredicates(meta SourceMeta, preds []string) bool {
	for _, p := range preds {
		if !meta.Predicates[p] {
			return false
		}
	}
	return true
}

// pruneBySpace reports whether every spatial filter window is disjoint
// from the source extent (then the source cannot contribute).
func pruneBySpace(meta SourceMeta, spatial []sparql.SpatialFilter) bool {
	if len(spatial) == 0 {
		return false
	}
	for _, sf := range spatial {
		// A filter that must intersect/within the window needs extent
		// overlap; sfContains(?g, const) also implies overlap.
		if meta.Extent.Intersects(sf.Window) {
			return false
		}
	}
	return true
}
