package sparql

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// This file implements parallel-aware result sinks over the
// morsel-driven executor (rdf.BGPPlan.RunParallel). The contract is
// strict determinism: every query's parallel output is byte-identical
// to the sequential executor's at any degree. The sinks get there by
// buffering per morsel and reducing in morsel index order — which is
// exactly the sequential stream order — so DISTINCT keeps the same
// first occurrences, LIMIT/OFFSET cut the same prefix, ORDER BY breaks
// ties in the same arrival order, and aggregate groups form in the same
// first-seen order.

// ErrCanceled is returned by the parallel execution paths when the
// caller's Cancel hook (typically a per-query timeout) stopped the run.
var ErrCanceled = errors.New("sparql: query canceled")

// ParallelExec configures one parallel execution of a compiled plan.
type ParallelExec struct {
	// Degree is the requested worker count; values < 2 still run the
	// morsel machinery with a single worker (useful for testing and the
	// degree-1 baseline), callers wanting the plain sequential path use
	// Execute/ExecuteSeeded instead.
	Degree int
	// Cancel, when non-nil, is polled at morsel dispatch (and
	// periodically inside exploding morsels); returning true stops all
	// workers promptly and fails the query with ErrCanceled.
	Cancel func() bool
	// Gate bounds executor goroutines server-wide (see rdf.WorkerGate).
	Gate rdf.WorkerGate
	// Morsels, when non-nil, counts dispatched morsels (the
	// sparql_exec_morsels_total counter).
	Morsels *atomic.Uint64
	// ScanMorsel and SeedMorsel override morsel sizes (0 = defaults);
	// tests shrink them to force many morsels on small data.
	ScanMorsel, SeedMorsel int
	// Stats, when non-nil, collects the run's executor profile (per-step
	// counters, morsels, per-worker utilization); see ExecuteParallelAnalyzed
	// for the high-level entry point.
	Stats *rdf.ParallelRunStats
}

func (px ParallelExec) runOpts() rdf.ParallelOpts {
	return rdf.ParallelOpts{
		Workers:    px.Degree,
		Cancel:     px.Cancel,
		Gate:       px.Gate,
		Morsels:    px.Morsels,
		ScanMorsel: px.ScanMorsel,
		SeedMorsel: px.SeedMorsel,
		Stats:      px.Stats,
	}
}

// ExecuteParallel evaluates the plan from the single empty row with
// morsel-driven parallelism.
func (p *Plan) ExecuteParallel(px ParallelExec) (*Results, error) {
	return p.ExecuteParallelSeeded(nil, px)
}

// ExecuteParallelSeeded is ExecuteSeeded on the parallel executor:
// the seed stream (or the first step's index range) is split into
// morsels run by a worker pool, and parallel-aware sinks reduce
// per-worker results into output byte-identical to the sequential
// executor's.
func (p *Plan) ExecuteParallelSeeded(seeds []rdf.Row, px ParallelExec) (*Results, error) {
	if p.aggregate {
		return p.executeAggregatesParallel(seeds, px)
	}
	q := p.q
	sink := &parSelect{
		p:        p,
		needSort: p.orderSlot >= 0 && q.OrderBy != "",
		distinct: q.Distinct,
	}
	if !sink.needSort && q.Limit > 0 {
		sink.needed = q.Offset + q.Limit
	}
	if p.bgp.RunParallel(p.st, seeds, px.runOpts(), sink) {
		return nil, ErrCanceled
	}
	return sink.finalize()
}

// EvalParallel evaluates q against st with the parallel executor at the
// given degree; it is Eval's parallel twin and must agree with it
// byte-for-byte (see diff_test.go).
func EvalParallel(st *rdf.Store, q *Query, degree int) (*Results, error) {
	p, err := CompilePlan(st, q, PlanOpts{Parallel: degree})
	if err != nil {
		return nil, err
	}
	return p.ExecuteParallel(ParallelExec{Degree: degree})
}

// projKey encodes the projected slot tuple of a row into buf (the
// DISTINCT deduplication key, same encoding as the sequential path).
func (p *Plan) projKey(buf []byte, row rdf.Row) []byte {
	buf = buf[:0]
	for _, sl := range p.projSlots {
		var id rdf.ID
		if sl >= 0 {
			id = row[sl]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// --- SELECT sink ---

// morselBuf holds one morsel's surviving rows (and their precomputed
// ORDER BY keys). Each buf is written by exactly one worker.
type morselBuf struct {
	rows []rdf.Row
	keys []sortKey
	pos  []int // arrival index of each row once sortRun reordered them
}

// selWorker is the per-worker emit state: a private arena and a local
// DISTINCT shard. The local shard only ever discards a row whose key
// already appeared in an earlier morsel of the same worker — never a
// global first occurrence — so it is a pure volume reducer; exact
// deduplication happens at commit time in morsel order.
type selWorker struct {
	arena  *rdf.RowArena
	seen   map[string]bool
	keyBuf []byte
}

// parSelect reduces parallel SELECT output deterministically: sharded
// per-worker DISTINCT sets, per-morsel buffers committed in morsel
// index order, an atomic row budget that cancels remaining morsels once
// the LIMIT/OFFSET prefix is fully committed, and per-morsel sorted
// runs k-way merged for ORDER BY.
type parSelect struct {
	p        *Plan
	needSort bool
	distinct bool
	needed   int // offset+limit prefix target; 0 = unbounded

	stopped atomic.Bool

	mu       sync.Mutex
	bufs     []morselBuf
	done     []bool
	prefix   int       // next morsel index to commit
	ordered  []rdf.Row // committed stream (unsorted path)
	dedup    map[string]bool
	dedupBuf []byte

	workers []selWorker
}

func (s *parSelect) Begin(morsels, workers int) {
	s.bufs = make([]morselBuf, morsels)
	s.done = make([]bool, morsels)
	s.workers = make([]selWorker, workers)
	for w := range s.workers {
		s.workers[w].arena = rdf.NewRowArena(s.p.width)
		if s.distinct {
			s.workers[w].seen = make(map[string]bool)
			s.workers[w].keyBuf = make([]byte, 0, 8*len(s.p.projSlots))
		}
	}
	if s.distinct {
		s.dedup = make(map[string]bool)
		s.dedupBuf = make([]byte, 0, 8*len(s.p.projSlots))
	}
}

func (s *parSelect) StartMorsel(worker, morsel int) func(rdf.Row) bool {
	if s.stopped.Load() {
		return nil
	}
	ws := &s.workers[worker]
	buf := &s.bufs[morsel]
	return func(row rdf.Row) bool {
		if s.distinct {
			ws.keyBuf = s.p.projKey(ws.keyBuf, row)
			k := string(ws.keyBuf)
			if ws.seen[k] {
				return true
			}
			ws.seen[k] = true
		}
		buf.rows = append(buf.rows, ws.arena.Copy(row))
		if s.needSort {
			buf.keys = append(buf.keys, s.p.sortKeyOf(row[s.p.orderSlot]))
		}
		// A single morsel never needs more than the whole LIMIT/OFFSET
		// prefix: emitting is capped per morsel, and the pipeline aborts
		// once the cap is hit. This holds under DISTINCT too, even
		// though some appended rows are cross-worker duplicates that
		// commit-time dedup will discard: a row dropped past the cap is
		// preceded, within its own morsel, by `needed` distinct values
		// whose global first occurrences all lie before it, so it cannot
		// be among the first `needed` distinct rows of the stream; and
		// conversely a needed value's first occurrence has fewer than
		// `needed` distinct values anywhere before it, so its morsel
		// cannot have capped out yet (nor can a worker's shard have
		// suppressed it — that would require an earlier occurrence).
		// TestParallelDistinctLimitBudget pins this.
		if s.needed > 0 && len(buf.rows) >= s.needed {
			return false
		}
		return !s.stopped.Load()
	}
}

func (s *parSelect) FinishMorsel(worker, morsel int) {
	if s.needSort {
		// Sort this morsel's run inside the worker (outside the lock),
		// stably so equal keys keep arrival order; the k-way merge then
		// reproduces the sequential stable sort exactly.
		buf := &s.bufs[morsel]
		if len(buf.rows) > 1 {
			sortRun(buf, s.p.q.OrderDesc)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[morsel] = true
	for s.prefix < len(s.done) && s.done[s.prefix] {
		s.commitLocked(s.prefix)
		s.prefix++
	}
	if s.needed > 0 && !s.needSort && len(s.ordered) >= s.needed && !s.stopped.Load() {
		// The whole LIMIT/OFFSET prefix is committed: cancel remaining
		// morsels.
		s.stopped.Store(true)
	}
}

// commitLocked folds morsel m into the committed stream. On the
// unsorted path rows are appended to the flat ordered stream; on the
// ORDER BY path the per-morsel sorted run is kept for the final k-way
// merge. DISTINCT deduplicates here, in morsel order — global first
// occurrences win, like the sequential stream.
func (s *parSelect) commitLocked(m int) {
	buf := &s.bufs[m]
	if s.distinct {
		w := 0
		for i, row := range buf.rows {
			s.dedupBuf = s.p.projKey(s.dedupBuf, row)
			k := string(s.dedupBuf)
			if s.dedup[k] {
				continue
			}
			s.dedup[k] = true
			buf.rows[w] = row
			if s.needSort {
				buf.keys[w] = buf.keys[i]
				if buf.pos != nil {
					buf.pos[w] = buf.pos[i]
				}
			}
			w++
		}
		buf.rows = buf.rows[:w]
		if s.needSort {
			buf.keys = buf.keys[:w]
			if buf.pos != nil {
				buf.pos = buf.pos[:w]
			}
		}
	}
	if !s.needSort {
		s.ordered = append(s.ordered, buf.rows...)
		buf.rows = nil // committed: release the buffer
	}
}

func (s *parSelect) FinishWorker(int) {}

// sortRun stably sorts one morsel's rows by sort key, recording each
// row's arrival index in pos.
func sortRun(buf *morselBuf, desc bool) {
	perm := sortedPerm(buf.keys, desc)
	rows := make([]rdf.Row, len(buf.rows))
	keys := make([]sortKey, len(buf.keys))
	for i, pi := range perm {
		rows[i], keys[i] = buf.rows[pi], buf.keys[pi]
	}
	buf.rows, buf.keys, buf.pos = rows, keys, perm
}

// inArrivalOrder concatenates the committed morsel buffers in stream
// order, undoing each run's sort.
func (s *parSelect) inArrivalOrder() morselBuf {
	var all morselBuf
	for m := range s.bufs {
		b := &s.bufs[m]
		idx := make([]int, len(b.rows))
		for i := range idx {
			idx[i] = i
		}
		if b.pos != nil {
			sort.Slice(idx, func(i, j int) bool { return b.pos[idx[i]] < b.pos[idx[j]] })
		}
		for _, i := range idx {
			all.rows = append(all.rows, b.rows[i])
			all.keys = append(all.keys, b.keys[i])
		}
	}
	return all
}

// runHeap is the k-way merge frontier over per-morsel sorted runs:
// ordered by sort key, ties broken by morsel index (sequential arrival
// order — within a run, stable per-morsel sorting already preserves
// it).
type runHeap struct {
	s       *parSelect
	morsels []int // morsel index of each live run
	pos     []int // cursor into each live run
	desc    bool
}

func (h *runHeap) Len() int { return len(h.morsels) }
func (h *runHeap) Less(i, j int) bool {
	bi, bj := &h.s.bufs[h.morsels[i]], &h.s.bufs[h.morsels[j]]
	ki, kj := bi.keys[h.pos[i]], bj.keys[h.pos[j]]
	if h.desc {
		if sortKeyLess(kj, ki) {
			return true
		}
		if sortKeyLess(ki, kj) {
			return false
		}
	} else {
		if sortKeyLess(ki, kj) {
			return true
		}
		if sortKeyLess(kj, ki) {
			return false
		}
	}
	return h.morsels[i] < h.morsels[j]
}
func (h *runHeap) Swap(i, j int) {
	h.morsels[i], h.morsels[j] = h.morsels[j], h.morsels[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
}
func (h *runHeap) Push(x any) { panic("runHeap: push after init") }
func (h *runHeap) Pop() any {
	n := len(h.morsels) - 1
	h.morsels = h.morsels[:n]
	h.pos = h.pos[:n]
	return nil
}

// finalize assembles the committed stream into ID-row Results,
// replicating the sequential projection tail (sort, OFFSET, LIMIT)
// exactly.
func (s *parSelect) finalize() (*Results, error) {
	q := s.p.q
	rows := s.ordered
	var kinds keyKinds
	for m := range s.bufs {
		for _, k := range s.bufs[m].keys {
			kinds.add(k)
		}
	}
	if s.needSort && !kinds.total() {
		// The runs cannot be merged into what the stable sort of the
		// stream yields; sort the stream itself, as the sequential
		// executor does.
		all := s.inArrivalOrder()
		sortRun(&all, q.OrderDesc)
		rows = all.rows
	} else if s.needSort {
		total := 0
		h := &runHeap{s: s, desc: q.OrderDesc}
		for m := range s.bufs {
			if n := len(s.bufs[m].rows); n > 0 {
				total += n
				h.morsels = append(h.morsels, m)
				h.pos = append(h.pos, 0)
			}
		}
		heap.Init(h)
		rows = make([]rdf.Row, 0, total)
		for h.Len() > 0 {
			m, p := h.morsels[0], h.pos[0]
			rows = append(rows, s.bufs[m].rows[p])
			if p+1 < len(s.bufs[m].rows) {
				h.pos[0] = p + 1
				heap.Fix(h, 0)
			} else {
				heap.Pop(h)
			}
		}
	}
	// Unlike the sequential path's streaming skip, every sink buffers
	// the full stream prefix; OFFSET therefore always applies here.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = rows[:0]
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}

	res := NewResults(s.p.vars, s.p.st.Dict())
	for _, row := range rows {
		res.appendProjected(s.p.projSlots, row)
	}
	return res, nil
}

// --- aggregate sink ---

// parGroup is one worker-local aggregate group with its global
// first-seen position (morsel, row-in-morsel) for deterministic group
// ordering.
type parGroup struct {
	counts []int
	m, i   int
}

// countWorker folds rows into per-worker partial aggregates — no locks,
// no cross-worker sharing on the hot path.
type countWorker struct {
	groups map[rdf.ID]*parGroup
	order  []rdf.ID
	morsel int
	idx    int
}

// parCount reduces parallel aggregate queries: per-worker partial
// COUNT folds merged at the barrier, groups ordered by global
// first-seen position to match the sequential stream.
type parCount struct {
	p       *Plan
	grouped bool
	workers []countWorker
}

func (s *parCount) Begin(morsels, workers int) {
	s.workers = make([]countWorker, workers)
	for w := range s.workers {
		s.workers[w].groups = make(map[rdf.ID]*parGroup)
	}
}

func (s *parCount) StartMorsel(worker, morsel int) func(rdf.Row) bool {
	ws := &s.workers[worker]
	ws.morsel, ws.idx = morsel, 0
	q := s.p.q
	return func(row rdf.Row) bool {
		i := ws.idx
		ws.idx++
		var key rdf.ID
		if s.grouped {
			key = row[s.p.groupSlot]
			if key == rdf.NoID {
				return true
			}
		}
		g := ws.groups[key]
		if g == nil {
			g = &parGroup{counts: make([]int, len(q.Aggregates)), m: morsel, i: i}
			ws.groups[key] = g
			ws.order = append(ws.order, key)
		}
		for ai, sl := range s.p.aggSlots {
			switch {
			case sl == countStar:
				g.counts[ai]++
			case sl == countNever:
				// COUNT(?v) with ?v never bound: contributes nothing.
			case row[sl] != rdf.NoID:
				g.counts[ai]++
			}
		}
		return true
	}
}

func (s *parCount) FinishMorsel(int, int) {}
func (s *parCount) FinishWorker(int)      {}

// executeAggregatesParallel is executeAggregates on the parallel
// executor: per-worker partial folds merged by global first-seen order.
func (p *Plan) executeAggregatesParallel(seeds []rdf.Row, px ParallelExec) (*Results, error) {
	q := p.q
	grouped := q.GroupBy != ""
	sink := &parCount{p: p, grouped: grouped}

	// A GROUP BY variable outside the BGP never binds; no groups form
	// (mirroring the sequential path, the pipeline is not run at all).
	if !grouped || p.groupSlot >= 0 {
		if p.bgp.RunParallel(p.st, seeds, px.runOpts(), sink) {
			return nil, ErrCanceled
		}
	}

	// Barrier merge: sum partial counts, order groups by the earliest
	// (morsel, row) that saw them — the sequential first-seen order.
	merged := map[rdf.ID]*parGroup{}
	var order []rdf.ID
	for w := range sink.workers {
		ws := &sink.workers[w]
		for _, key := range ws.order {
			g := ws.groups[key]
			mg := merged[key]
			if mg == nil {
				merged[key] = g
				order = append(order, key)
				continue
			}
			for i := range mg.counts {
				mg.counts[i] += g.counts[i]
			}
			if g.m < mg.m || (g.m == mg.m && g.i < mg.i) {
				mg.m, mg.i = g.m, g.i
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := merged[order[a]], merged[order[b]]
		if ga.m != gb.m {
			return ga.m < gb.m
		}
		return ga.i < gb.i
	})

	return p.renderAggregates(order, func(k rdf.ID) []int { return merged[k].counts })
}
