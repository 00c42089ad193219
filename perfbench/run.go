package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload describes one traffic mix. Each opens at most two
// connections, no more than the cores of the 2-core machine it was
// sized on, and takes every input from the seed.
type workload struct {
	name    string
	conns   int
	baseN   int     // base point features loaded at boot
	durable bool    // -data-dir + -load-token
	replica bool    // one streaming replica (-replica-of)
	readers int     // closed-loop query clients
	writer  bool    // reader 0 also posts a batch (POST /load), one per readsPerWrite reads of all readers
	rate    float64 // open-loop loads per second (0: none)
	batch   int     // features per load batch
}

var workloads = map[string]*workload{
	"read_cold":         {name: "read_cold", conns: 2, baseN: 100000, readers: 2},
	"ingest_replicated": {name: "ingest_replicated", conns: 2, baseN: 10000, durable: true, replica: true, rate: 70, batch: 50},
	"mixed_rw":          {name: "mixed_rw", conns: 2, baseN: 10000, durable: true, readers: 2, writer: true, batch: 50},
}

var workloadOrder = []string{"read_cold", "ingest_replicated", "mixed_rw"}

const (
	loadToken = "perfbench-load"
	replToken = "perfbench-repl"
	// visibleDeadline is how long after the last ack the benchmark waits
	// for batches to show on the replica before listing them as never
	// visible: several of the feed's 250 ms polls.
	visibleDeadline = 1500 * time.Millisecond
	fullCheckEvery  = 16 // every n-th query is verified row by row
	// readsPerWrite fixes mixed_rw's mix: reader 0 posts the next batch
	// after every readsPerWrite/readers of its own reads, so about 1 read
	// in readsPerWrite pays the rebuild after a write on every run and
	// host. That share (5%) puts the read p99 among those reads. One
	// writer keeps the batches in order, as the read oracle assumes.
	readsPerWrite = 20
	openWarmup    = 2500 * time.Millisecond // paced warmup of the open loop
)

// runResult is what one run (untraced or traced) measured.
type runResult struct {
	correct           bool
	attempted, failed int64
	e2e               map[string]float64
	samples           map[string]int
	counters          map[string]float64
	layers            map[string]float64
	mu                sync.Mutex
	notes             []string
}

func (r *runResult) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// gated maps a gated end-to-end metric to the workload's operation.
func (r *runResult) gated(w *workload, name string) float64 {
	if w.rate > 0 { // ingest: acked triples, and due time to visible on the replica
		switch name {
		case "ops_per_s":
			return r.e2e["load_triples_per_s"]
		case "op_p50_ms":
			return r.e2e["repl_visible_p50_ms"]
		case "op_p99_ms":
			return r.e2e["repl_visible_p99_ms"]
		}
	}
	switch name {
	case "ops_per_s":
		return r.e2e["read_qps"]
	case "op_p50_ms":
		return r.e2e["read_p50_ms"]
	case "op_p99_ms":
		return r.e2e["read_p99_ms"]
	}
	return r.e2e[name]
}

func (r *runResult) print(label string) {
	fmt.Printf("== %s run\n", label)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, d := range e2eDefs {
		v, ok := r.e2e[d.name]
		if !ok {
			continue
		}
		extra := ""
		if n, ok := r.samples[d.name]; ok {
			extra = fmt.Sprintf("  (n=%d)", n)
			if strings.Contains(d.name, "p99") && n < 1000 {
				extra += " WARNING: fewer than 1000 samples, p99 has <10 beyond it"
			}
		}
		fmt.Printf("  %-22s %12.4f %s%s\n", d.name, v, d.unit, extra)
	}
	if len(r.counters) > 0 {
		fmt.Println("  program counters (delta over the timed window, summed over nodes):")
		for _, f := range counterFamilies {
			fmt.Printf("    %-38s %12.0f\n", f, r.counters[f])
		}
	}
	if len(r.layers) > 0 {
		fmt.Println("  per-layer:")
		for _, d := range layerDefs {
			fmt.Printf("    %-38s %12.4f %s\n", d.name, r.layers[d.name], d.unit)
		}
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", r.correct, r.attempted, r.failed)
}

// cluster is the set of serving processes of one boot.
type cluster struct {
	procs []*proc
	nodes []*node // nodes[0] serves queries and loads; nodes[1] is the replica
	dump  string  // traced stack's span summary, written on exit
}

func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop(90 * time.Second)
	}
}

func (c *cluster) rssMiB() float64 {
	var s float64
	for _, p := range c.procs {
		s += p.peakRSSMiB()
	}
	return s
}

// boot starts the workload's servers and waits until every node is
// healthy and the replica holds the primary's boot snapshot. It returns
// the seconds from the first exec to that point.
func boot(o options, w *workload, traced bool, dir, basePath string, conns []*conn) (*cluster, float64, error) {
	cl := &cluster{}
	want := int64(w.baseN * triplesPerF)
	ports := make([]int, 2)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		ports[i] = p
	}
	addr := func(i int) string { return "127.0.0.1:" + strconv.Itoa(ports[i]) }
	deadline := time.Now().Add(120 * time.Second)
	start := time.Now()
	if traced {
		if err := os.MkdirAll(o.traces, 0o755); err != nil {
			return nil, 0, err
		}
		cl.dump = filepath.Join(o.traces, fmt.Sprintf("%s-%d.json", w.name, o.seed))
		args := []string{"serve", "-workload", w.name, "-base", basePath, "-dir", filepath.Join(dir, "data"),
			"-addr", addr(0), "-out", cl.dump}
		if w.replica {
			args = append(args, "-replica-addr", addr(1))
		}
		p, err := startProc(filepath.Join(dir, "serve.log"), o.self, args...)
		if err != nil {
			return nil, 0, err
		}
		cl.procs = append(cl.procs, p)
		cl.nodes = append(cl.nodes, &node{"primary", "http://" + addr(0), p})
		if w.replica {
			cl.nodes = append(cl.nodes, &node{"replica", "http://" + addr(1), p})
		}
	} else {
		args := []string{"-addr", addr(0), "-n", "0", "-load", basePath}
		if w.durable {
			args = append(args, "-data-dir", filepath.Join(dir, "primary"), "-load-token", loadToken)
		}
		if w.replica {
			args = append(args, "-replication-token", replToken)
		}
		p, err := startProc(filepath.Join(dir, "primary.log"), o.eeserve, args...)
		if err != nil {
			return nil, 0, err
		}
		cl.procs = append(cl.procs, p)
		cl.nodes = append(cl.nodes, &node{"primary", "http://" + addr(0), p})
	}
	fail := func(err error) (*cluster, float64, error) {
		cl.stop()
		return nil, 0, err
	}
	if err := waitHealthy(conns[0], cl.nodes[0], deadline, func(h health) bool { return h.Triples == want }); err != nil {
		return fail(err)
	}
	if w.replica && !traced {
		args := []string{"-addr", addr(1), "-data-dir", filepath.Join(dir, "replica"),
			"-replica-of", cl.nodes[0].base, "-replication-token", replToken}
		p, err := startProc(filepath.Join(dir, "replica.log"), o.eeserve, args...)
		if err != nil {
			return fail(err)
		}
		cl.procs = append(cl.procs, p)
		cl.nodes = append(cl.nodes, &node{"replica", "http://" + addr(1), p})
	}
	if w.replica {
		if err := waitHealthy(conns[1], cl.nodes[1], deadline, func(h health) bool { return h.Triples == want }); err != nil {
			return fail(err)
		}
	}
	return cl, since(start), nil
}

// readStats accumulates one run's query outcomes.
type readStats struct {
	lat       lat
	attempted atomic.Int64
	failed    atomic.Int64 // non-200, transport error or wrong answer
	wrong     atomic.Int64
	mu        sync.Mutex
	firstBad  string
}

func (s *readStats) bad(msg string) {
	s.mu.Lock()
	if s.firstBad == "" {
		s.firstBad = msg
	}
	s.mu.Unlock()
}

// writeLog records the load stream so reads can be checked against
// whatever prefix of it a query may have seen.
type writeLog struct {
	sent  atomic.Int64 // batches whose request has started
	acked atomic.Int64 // batches acknowledged (2xx)
}

func runOnce(o options, w *workload, traced bool, reps int) (*runResult, error) {
	dir := filepath.Join(o.work, "plain")
	if traced {
		dir = filepath.Join(o.work, "traced")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{correct: true, e2e: map[string]float64{}, samples: map[string]int{}, counters: map[string]float64{}}

	// Inputs: the base features, the write batches and the query streams.
	rng := rand.New(rand.NewSource(o.seed))
	base := genFeatures(rng, "b", w.baseN)
	var nt bytes.Buffer
	base.appendNTriples(&nt, 0, base.len())
	basePath := filepath.Join(dir, "base.nt")
	if err := os.WriteFile(basePath, nt.Bytes(), 0o644); err != nil {
		return nil, err
	}
	hash := newStreamHash()
	hash.add(nt.String())
	nBatches := 0
	switch {
	case w.rate > 0:
		nBatches = int(w.rate*(openWarmup.Seconds()+o.seconds)) + 2
	case w.writer:
		nBatches = int(o.seconds*30) + 10 // ample below 600 reads/s
	}
	writes := genFeatures(rand.New(rand.NewSource(o.seed^0x5eed)), "w", nBatches*w.batch)
	bodies := make([][]byte, nBatches)
	for i := range bodies {
		var b bytes.Buffer
		writes.appendNTriples(&b, i*w.batch, (i+1)*w.batch)
		bodies[i] = b.Bytes()
		hash.add(b.String())
	}
	pools := make([][]query, w.readers)
	for i := range pools {
		prng := rand.New(rand.NewSource(o.seed*1000 + int64(i)))
		pools[i] = make([]query, 20000)
		for j := range pools[i] {
			if w.writer {
				// Windows of 1–20% return read_cold's 100–2000 rows from the
				// ten times smaller store.
				q := query{kind: kindWindow, win: randomWindow(prng, 0.01+prng.Float64()*0.19), format: []string{"json", "json", "csv", "geojson"}[prng.Intn(4)]}
				q.build()
				pools[i][j] = q
			} else {
				pools[i][j] = coldQuery(prng)
			}
			hash.add(pools[i][j].path)
		}
	}
	res.note("request stream sha256=%s (base %d features, %d write batches, %d query clients)", hash.hex(), w.baseN, nBatches, w.readers)

	conns := make([]*conn, w.conns)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}

	var primary *node // the serving node of the current boot
	baseTriples := int64(w.baseN * triplesPerF)
	wl := &writeLog{}
	batchTriples := int64(w.batch * triplesPerF)
	stateAt := func(k int64) []*features {
		return []*features{base, writes.head(int(k) * w.batch)}
	}

	// checkRead verifies one response: its row count must fall between
	// the oracle's counts on the write prefixes the query could have
	// seen, and sampled responses must match row by row.
	checkRead := func(q *query, body []byte, loK, hiK int64, full bool) string {
		got := countRows(q.format, body)
		lo := oracle(q, stateAt(loK), full)
		hi := lo
		if hiK != loK {
			hi = oracle(q, stateAt(hiK), full)
		}
		if got < lo.rows || got > hi.rows {
			return fmt.Sprintf("%s rows=%d want %d..%d: %s", q.format, got, lo.rows, hi.rows, q.text)
		}
		if full {
			rows, err := canonRows(q, body)
			if err != nil {
				return fmt.Sprintf("decode %s: %v", q.format, err)
			}
			if loK == hiK && !sameRows(rows, lo.set) {
				return fmt.Sprintf("rows differ from the oracle: %s", q.text)
			}
			if loK != hiK && (!subset(lo.set, rows) || !subset(rows, hi.set)) {
				return fmt.Sprintf("rows outside the oracle's bounds: %s", q.text)
			}
		}
		return ""
	}

	var qseq atomic.Int64 // query request IDs
	readOnce := func(c *conn, q *query, full bool, rs *readStats, timed bool) {
		rid := "q" + strconv.FormatInt(qseq.Add(1), 10)
		loK := wl.acked.Load()
		t0 := time.Now()
		code, body, err := c.query(primary.base, q.path, rid)
		d := time.Since(t0)
		hiK := wl.sent.Load()
		if !timed {
			if err == nil && code == http.StatusOK {
				if msg := checkRead(q, body, loK, hiK, full); msg != "" {
					res.correct = false
					res.note("WRONG ANSWER (warmup): %s", msg)
				}
			}
			return
		}
		rs.attempted.Add(1)
		switch {
		case err != nil:
			rs.failed.Add(1)
			rs.bad(err.Error())
		case code != http.StatusOK:
			rs.failed.Add(1)
			rs.bad(fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(body)))
		default:
			if msg := checkRead(q, body, loK, hiK, full); msg != "" {
				rs.failed.Add(1)
				rs.wrong.Add(1)
				rs.bad(msg)
				return
			}
			rs.lat.add(d)
		}
	}

	warmLoad := func(i int) error {
		wl.sent.Add(1)
		if _, code, err := conns[0].load(primary.base, loadToken, fmt.Sprintf("warm-%d", i), bodies[i]); err != nil || code/100 != 2 {
			return fmt.Errorf("warmup load: HTTP %d %v", code, err)
		}
		wl.acked.Add(1)
		return nil
	}

	// warm makes a fresh boot ready to serve at speed: a few loads
	// (mixed_rw) and the first index build (every reading workload). It
	// counts in setup_s, not in the window.
	nextBatch := 0
	warm := func() error {
		wl.sent.Store(0)
		wl.acked.Store(0)
		for nextBatch = 0; w.writer && nextBatch < 5; nextBatch++ {
			if err := warmLoad(nextBatch); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(o.seed + 7))
		for i := 0; w.readers > 0 && i < 3; i++ {
			q := coldQuery(rng)
			readOnce(conns[0], &q, true, nil, false)
		}
		return nil
	}

	// setup_s is the median over the boots; the last boot serves the run.
	var cl *cluster
	var setups []float64
	// Boot at least reps times, and while boots are quick keep booting
	// until they add up to a few seconds, so the median is steady.
	var booted time.Duration
	for r := 0; r < reps || (reps > 1 && r < 15 && booted < 3*time.Second); r++ {
		if cl != nil {
			cl.stop()
			for _, d := range []string{"primary", "replica", "data"} {
				os.RemoveAll(filepath.Join(dir, d))
			}
		}
		var s float64
		var err error
		cl, s, err = boot(o, w, traced, dir, basePath, conns)
		if err != nil {
			return nil, err
		}
		primary = cl.nodes[0]
		t := time.Now()
		if err := warm(); err != nil {
			cl.stop()
			return nil, err
		}
		s += since(t)
		setups = append(setups, s)
		booted += time.Duration(s * float64(time.Second))
	}
	defer cl.stop()
	res.e2e["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	if w.rate > 0 {
		// The open loop ramps up at its own rate before the window. This
		// also puts the run's last background snapshot poll inside the
		// window, so the batches committed after it stay unsynced past
		// the visibility deadline instead of being shipped by a snapshot
		// that merely follows the run.
		rampStart := time.Now()
		for ; nextBatch < int(openWarmup.Seconds()*w.rate); nextBatch++ {
			time.Sleep(time.Until(rampStart.Add(time.Duration(float64(nextBatch) / w.rate * float64(time.Second)))))
			if err := warmLoad(nextBatch); err != nil {
				return nil, err
			}
		}
	}

	before, err := scrapeAll(conns, cl.nodes)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := mark(conns[0], primary.base, "start"); err != nil {
			return nil, err
		}
	}

	// The timed window.
	rs := &readStats{}
	var ackLat, visLat, lateness lat
	var loadAttempted, loadFailed, ackedTimed atomic.Int64
	type acked struct {
		idx      int
		target   int64
		due, ack time.Time
		visible  time.Time
	}
	var ackMu sync.Mutex
	var ackedList []*acked
	start := time.Now()
	end := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	loadOne := func(c *conn, i int, due time.Time) {
		loadAttempted.Add(1)
		wl.sent.Add(1)
		a, code, err := c.load(primary.base, loadToken, fmt.Sprintf("load-%d", i), bodies[i])
		now := time.Now()
		if err != nil || code/100 != 2 {
			loadFailed.Add(1)
			res.note("load %d failed: HTTP %d %v", i, code, err)
			return
		}
		wl.acked.Add(1)
		ackedTimed.Add(1)
		ackLat.add(now.Sub(due))
		if w.replica {
			ackMu.Lock()
			ackedList = append(ackedList, &acked{idx: i, target: a.Triples, due: due, ack: now})
			ackMu.Unlock()
		}
	}
	for i := 0; i < w.readers; i++ {
		i := i
		c := conns[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := pools[i]
			for j := 0; time.Now().Before(end); j++ {
				if j == len(pool) {
					res.note("query pool of client %d exhausted; reusing it", i)
				}
				readOnce(c, &pool[j%len(pool)], j%fullCheckEvery == 0, rs, true)
				if w.writer && i == 0 && (j+1)%(readsPerWrite/w.readers) == 0 && time.Now().Before(end) {
					if nextBatch < nBatches {
						loadOne(c, nextBatch, time.Now())
					} else if nextBatch == nBatches {
						res.note("write batches exhausted before the window ended")
					}
					nextBatch++
				}
			}
		}()
	}
	loadsDone := make(chan struct{})
	var pollErr error
	if w.rate > 0 {
		interval := time.Duration(float64(time.Second) / w.rate)
		go func() {
			defer close(loadsDone)
			prevDone := start
			for k := 0; nextBatch < nBatches; k, nextBatch = k+1, nextBatch+1 {
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(end) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ready := due
				if prevDone.After(ready) {
					ready = prevDone
				}
				lateness.add(time.Since(ready))
				loadOne(conns[0], nextBatch, due)
				prevDone = time.Now()
			}
		}()
		// The replica poller: a second connection watching /healthz. It
		// stops once every acked batch is visible, or visibleDeadline after
		// the last load. A replica that dies, or whose /healthz still fails
		// at that point, fails the run.
		wg.Add(1)
		go func() {
			defer wg.Done()
			replica := cl.nodes[1]
			next := 0
			var stopAt time.Time
			for {
				if replica.proc.exited() {
					pollErr = fmt.Errorf("replica exited during the run: %v (see its log)", replica.proc.err)
					return
				}
				h, err := conns[1].health(replica.base)
				now := time.Now()
				all := false
				if err == nil {
					ackMu.Lock()
					for next < len(ackedList) && ackedList[next].target <= h.Triples {
						ackedList[next].visible = now
						next++
					}
					all = next == len(ackedList)
					ackMu.Unlock()
				}
				if stopAt.IsZero() {
					select {
					case <-loadsDone:
						stopAt = now.Add(visibleDeadline)
					default:
					}
				}
				if !stopAt.IsZero() && (all || now.After(stopAt)) {
					if err != nil {
						pollErr = fmt.Errorf("replica /healthz: %w", err)
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	} else {
		close(loadsDone)
	}
	wg.Wait()
	<-loadsDone
	if pollErr != nil {
		return nil, pollErr
	}
	window := since(start)
	if w.rate > 0 && len(ackedList) > 0 {
		// The schedule and the last ack, not the visibility wait, set the rate.
		window = ackedList[len(ackedList)-1].ack.Sub(start).Seconds()
	}
	rss := cl.rssMiB()

	if traced {
		if err := mark(conns[0], primary.base, "end"); err != nil {
			return nil, err
		}
	}
	after, err := scrapeAll(conns, cl.nodes)
	if err != nil {
		return nil, err
	}
	for _, f := range counterFamilies {
		res.counters[f] = after[f] - before[f]
	}

	// End-of-run state checks: base + acked triples on the primary, and
	// an exact prefix of the acked batches on the replica.
	if w.writer || w.rate > 0 {
		h, err := conns[0].health(primary.base)
		if err != nil {
			return nil, err
		}
		if want := baseTriples + wl.acked.Load()*batchTriples; h.Triples != want {
			res.correct = false
			res.note("WRONG STATE: primary holds %d triples, want base+acked = %d", h.Triples, want)
		}
	}
	var neverVisible []int
	if w.replica {
		h, err := conns[1].health(cl.nodes[1].base)
		if err != nil {
			return nil, err
		}
		visible := 0
		for _, a := range ackedList {
			if !a.visible.IsZero() {
				visible++
			}
		}
		// The replica may be mid-way through applying a late batch.
		lo, hi := baseTriples+int64(visible)*batchTriples, baseTriples+wl.acked.Load()*batchTriples
		if h.Triples < lo || h.Triples > hi {
			res.correct = false
			res.note("WRONG STATE: replica holds %d triples, want %d..%d (base + the visible..acked batches)", h.Triples, lo, hi)
		}
		for _, a := range ackedList {
			if a.visible.IsZero() {
				neverVisible = append(neverVisible, a.idx)
				continue
			}
			visLat.add(a.visible.Sub(a.due))
		}
		if len(neverVisible) > 0 {
			res.note("acked batches never visible on the replica within %v of the last ack: %d %v", visibleDeadline, len(neverVisible), neverVisible)
		}
		if lp99 := lateness.pct(99); lp99 > float64(time.Second/time.Duration(w.rate))/1e6 {
			res.note("INVALID RUN: the generator itself fell behind its schedule (lateness p99 %.2f ms)", lp99)
			return nil, fmt.Errorf("load generator fell behind (lateness p99 %.2f ms)", lp99)
		}
		res.note("generator lateness p99=%.3f ms (n=%d)", lateness.pct(99), lateness.n())
	}

	if traced {
		cl.stop()
		visible := map[string]time.Time{}
		for _, a := range ackedList {
			if !a.visible.IsZero() {
				visible[fmt.Sprintf("load-%d", a.idx)] = a.visible
			}
		}
		if err := readDump(cl.dump, res, visible); err != nil {
			return nil, err
		}
		res.note("span summary %s, spans %s.spans", cl.dump, cl.dump)
		c := res.counters
		if n := c["replication_triples_applied_total"]; n > 0 {
			res.layers["replication.bytes_shipped_per_triple"] = c["replication_bytes_shipped_total"] / n
		}
		res.layers["replication.reconnects"] = c["replication_reconnects_total"]
		if n := c["sparql_plan_cache_hits_total"] + c["sparql_plan_cache_misses_total"]; n > 0 {
			res.layers["geostore.plan_cache_hit_ratio"] = c["sparql_plan_cache_hits_total"] / n
		}
	}

	// Named end-to-end metrics.
	res.e2e["server_rss_mb"] = rss
	if w.readers > 0 {
		ok := rs.lat.n()
		res.e2e["read_qps"] = float64(ok) / window
		res.e2e["read_p50_ms"] = rs.lat.pct(50)
		res.e2e["read_p99_ms"] = rs.lat.pct(99)
		res.e2e["read_fail_frac"] = float64(rs.failed.Load()) / float64(max(1, rs.attempted.Load()))
		res.samples["read_p99_ms"] = ok
		if rs.firstBad != "" {
			res.note("first failed query: %s", rs.firstBad)
		}
		if rs.wrong.Load() > 0 {
			res.correct = false
			res.note("WRONG ANSWERS: %d", rs.wrong.Load())
		}
	}
	if w.writer || w.rate > 0 {
		res.e2e["load_ack_p50_ms"] = ackLat.pct(50)
		res.e2e["load_ack_p99_ms"] = ackLat.pct(99)
		res.samples["load_ack_p99_ms"] = ackLat.n()
		res.e2e["load_triples_per_s"] = float64(ackedTimed.Load()*batchTriples) / window
		res.e2e["load_fail_frac"] = float64(loadFailed.Load()+int64(len(neverVisible))) / float64(max(1, loadAttempted.Load()))
	}
	if w.replica {
		res.e2e["repl_visible_p50_ms"] = visLat.pct(50)
		res.e2e["repl_visible_p99_ms"] = visLat.pct(99)
		res.samples["repl_visible_p99_ms"] = visLat.n()
	}
	res.attempted = rs.attempted.Load() + loadAttempted.Load()
	res.failed = rs.failed.Load() + loadFailed.Load()
	if res.attempted == 0 {
		res.attempted = 1
	}
	return res, nil
}

// head returns a view of the first n features.
func (f *features) head(n int) *features {
	return &features{prefix: f.prefix, x: f.x[:n], y: f.y[:n], val: f.val[:n]}
}

// subset reports whether sorted a ⊆ sorted b.
func subset(a, b []string) bool {
	j := 0
	for _, s := range a {
		for j < len(b) && b[j] < s {
			j++
		}
		if j == len(b) || b[j] != s {
			return false
		}
		j++
	}
	return true
}

// scrapeAll sums the counter families over the nodes, scraping node i
// over connection i.
func scrapeAll(conns []*conn, nodes []*node) (map[string]float64, error) {
	sum := map[string]float64{}
	for i, n := range nodes {
		m, err := conns[i].scrape(n.base, counterFamilies)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n.name, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// mark tells the traced stack where the timed window starts and ends.
func mark(c *conn, base, phase string) error {
	req, err := http.NewRequest(http.MethodPost, base+markPath+"?phase="+phase, nil)
	if err != nil {
		return err
	}
	code, body, err := c.do(req)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("mark %s: HTTP %d %s", phase, code, body)
	}
	return nil
}

// readDump folds the traced stack's span summary into res.layers and
// derives the metrics that need the client's visibility times.
func readDump(path string, res *runResult, visible map[string]time.Time) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("traced stack wrote no span summary: %w", err)
	}
	var d traceDump
	if err := json.Unmarshal(raw, &d); err != nil {
		return err
	}
	res.layers = d.Layers
	var gaps []float64
	for _, l := range d.Loads {
		if v, ok := visible[l.ID]; ok && l.DurableNs > 0 {
			gaps = append(gaps, float64(v.UnixNano()-l.DurableNs)/1e6)
		}
	}
	sort.Float64s(gaps)
	res.layers["replication.durable_to_visible_ms"] = mean(gaps)
	return nil
}
