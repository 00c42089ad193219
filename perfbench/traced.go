package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/endpoint"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/replication"
	"repro/internal/sparql"
	"repro/internal/storage"
	"repro/internal/storage/vfs"
	"repro/internal/telemetry"
)

// The traced run assembles eeserve's stack in one process from the same
// public constructors (geostore.New, storage.Open/Recover,
// replication.NewFeed/NewReplica/Bootstrap, endpoint.New) with eeserve's
// default settings, and records spans only at the public seams, from
// this package: an http.Handler/ResponseWriter wrapper, an
// endpoint.Engine/Loader wrapper, an rdf.Journal wrapper around the WAL
// and a vfs.FS wrapper under storage. Spans stay in memory while the
// window runs and are written out, with the derived per-layer metrics,
// when the process is told to stop.

const (
	markPath          = "/perfbench/mark"
	snapshotEvery     = 100000 // eeserve -snapshot-every default
	walSyncEvery      = 8      // eeserve -wal-sync-every default
	snapshotPoll      = 5 * time.Second
	sideCallSample    = 16 // every n-th traced query is kept for the side calls
	analyzeSampleSize = 64
	spanPrealloc      = 1 << 16 // spans reserved when the window starts
)

// traceDump is what the traced stack writes on exit.
type traceDump struct {
	Layers map[string]float64 `json:"layers"`
	Loads  []loadTrace        `json:"loads"`
}

// loadTrace is one traced POST /load: when its WAL bytes became durable
// on the primary (wall clock, ns), for durable → visible on the client.
type loadTrace struct {
	ID        string `json:"id"`
	DurableNs int64  `json:"durable_ns"`
}

// span is one timed call at a seam. Spans of one request share rid.
type span struct {
	name       string
	rid        string
	start, end time.Time
	rows       int   // result rows (query spans)
	bytes      int64 // body bytes (request and load spans)
	writeNs    int64 // time inside ResponseWriter.Write (request spans)
	status     int
	cache      string // X-Cache of the response
	afterWrite bool   // first query after a load
	walBytes   int64  // WAL bytes written when the load finished
}

// syncRec is one fsync seen by the vfs wrapper.
type syncRec struct {
	wal        bool
	walWritten int64 // WAL bytes written before this sync began
	start, end time.Time
}

// sideSample is a traced query kept for the sparql.Parse and
// endpoint.WriteResults side calls.
type sideSample struct {
	text   string
	format endpoint.Format
	res    *sparql.Results
}

type tracer struct {
	on atomic.Bool
	nq atomic.Int64 // traced /sparql requests, for sampling

	mu      sync.Mutex
	spans   []span
	samples map[string]*sideSample
	msStart runtime.MemStats
	msEnd   runtime.MemStats
	boot    map[string]float64
}

func newTracer() *tracer {
	return &tracer{samples: map[string]*sideSample{}, boot: map[string]float64{}}
}

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) bootStep(name string, start time.Time) {
	t.mu.Lock()
	t.boot[name] += float64(time.Since(start)) / 1e6
	t.mu.Unlock()
}

// --- http.Handler + ResponseWriter wrapper (root span, request ID) ---

type traceWriter struct {
	http.ResponseWriter
	status  int
	bytes   int64
	writeNs int64
}

func (w *traceWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *traceWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.ResponseWriter.Write(p)
	w.writeNs += int64(time.Since(start))
	w.bytes += int64(n)
	return n, err
}

// writerPool recycles the ResponseWriter wrappers, so the tracer adds
// no allocation of its own to a traced query.
var writerPool = sync.Pool{New: func() any { return new(traceWriter) }}

// bodyWithID carries the request ID to the Loader wrapper, which
// receives only the request body.
type bodyWithID struct {
	io.ReadCloser
	rid string
}

func (t *tracer) handler(next http.Handler, fsys ...*tracedFS) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == markPath {
			t.mark(r.URL.Query().Get("phase"), fsys)
			return
		}
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		rid := r.Header.Get("X-Request-ID") // the load generator sends one
		if r.URL.Path == "/sparql" && t.nq.Add(1)%sideCallSample == 0 {
			qv := r.URL.Query()
			f, _ := endpoint.ParseFormat(qv.Get("format"))
			t.mu.Lock()
			t.samples[rid] = &sideSample{text: qv.Get("query"), format: f}
			t.mu.Unlock()
		}
		if r.URL.Path == "/load" {
			r.Body = &bodyWithID{r.Body, rid}
		}
		tw := writerPool.Get().(*traceWriter)
		*tw = traceWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(tw, r)
		t.add(span{name: "request" + r.URL.Path, rid: rid, start: start, end: time.Now(),
			bytes: tw.bytes, writeNs: tw.writeNs, status: tw.status, cache: tw.Header().Get("X-Cache")})
		*tw = traceWriter{}
		writerPool.Put(tw)
	})
}

func (t *tracer) mark(phase string, fsys []*tracedFS) {
	switch phase {
	case "start":
		t.mu.Lock()
		t.spans = make([]span, 0, spanPrealloc)
		t.samples = map[string]*sideSample{}
		t.mu.Unlock()
		for _, f := range fsys {
			if f != nil {
				f.reset()
			}
		}
		runtime.ReadMemStats(&t.msStart)
		t.on.Store(true)
	case "end":
		t.on.Store(false)
		runtime.ReadMemStats(&t.msEnd)
	}
}

// --- endpoint.Engine / Loader wrapper ---

// tracedEngine wraps the geostore with spans, forwarding every optional
// interface the endpoint type-asserts so the serving path is unchanged.
type tracedEngine struct {
	st    *geostore.Store
	t     *tracer
	wal   *tracedFS // primary storage, nil when ephemeral
	dirty atomic.Bool
}

var (
	_ endpoint.Engine             = (*tracedEngine)(nil)
	_ endpoint.ContextEngine      = (*tracedEngine)(nil)
	_ endpoint.AnalyzeEngine      = (*tracedEngine)(nil)
	_ endpoint.MemoryStatser      = (*tracedEngine)(nil)
	_ endpoint.PlanCacheStatser   = (*tracedEngine)(nil)
	_ endpoint.SpatialJoinStatser = (*tracedEngine)(nil)
	_ endpoint.ExecStatser        = (*tracedEngine)(nil)
	_ endpoint.Loader             = (*tracedEngine)(nil)
)

func (e *tracedEngine) Query(q *sparql.Query) (*sparql.Results, error) {
	return e.QueryContext(context.Background(), q)
}

func (e *tracedEngine) QueryContext(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	after := e.dirty.Swap(false)
	start := time.Now()
	res, err := e.st.QueryContext(ctx, q)
	e.traceQuery(ctx, start, after, res)
	return res, err
}

func (e *tracedEngine) QueryAnalyze(ctx context.Context, q *sparql.Query) (*sparql.Results, *sparql.Profile, error) {
	after := e.dirty.Swap(false)
	start := time.Now()
	res, prof, err := e.st.QueryAnalyze(ctx, q)
	e.traceQuery(ctx, start, after, res)
	return res, prof, err
}

func (e *tracedEngine) traceQuery(ctx context.Context, start time.Time, after bool, res *sparql.Results) {
	rid := sparql.RequestIDFrom(ctx)
	s := span{name: "geostore.query", rid: rid, start: start, end: time.Now(), afterWrite: after}
	if res != nil {
		s.rows = res.Len()
	}
	e.t.add(s)
	if res != nil && e.t.on.Load() {
		e.t.mu.Lock()
		if smp, ok := e.t.samples[rid]; ok {
			smp.res = res
		}
		e.t.mu.Unlock()
	}
}

func (e *tracedEngine) LoadNTriples(r io.Reader) (int, error) {
	rid := ""
	if b, ok := r.(*bodyWithID); ok {
		rid = b.rid
	}
	cr := &countingReader{r: r}
	start := time.Now()
	n, err := e.st.LoadNTriples(cr)
	s := span{name: "geostore.load", rid: rid, start: start, end: time.Now(), bytes: cr.n}
	e.dirty.Store(true)
	if e.wal != nil {
		s.walBytes = e.wal.walWritten.Load()
	}
	e.t.add(s)
	return n, err
}

func (e *tracedEngine) Version() uint64                       { return e.st.Version() }
func (e *tracedEngine) Len() int                              { return e.st.Len() }
func (e *tracedEngine) JournalErr() error                     { return e.st.JournalErr() }
func (e *tracedEngine) MemoryStats() telemetry.StoreMemory    { return e.st.MemoryStats() }
func (e *tracedEngine) PlanCacheStats() (hits, misses uint64) { return e.st.PlanCacheStats() }
func (e *tracedEngine) SpatialJoinStats() uint64              { return e.st.SpatialJoinStats() }
func (e *tracedEngine) ExecStats() uint64                     { return e.st.ExecStats() }

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// --- rdf.Journal wrapper around storage.Log ---

type tracedJournal struct {
	j rdf.Journal
	t *tracer
}

func (j *tracedJournal) Record(t rdf.Triple) error { return j.j.Record(t) }

func (j *tracedJournal) Commit() error {
	start := time.Now()
	err := j.j.Commit()
	j.t.add(span{name: "storage.commit", start: start, end: time.Now()})
	return err
}

// --- vfs.FS wrapper passed as storage.Options.FS ---

type tracedFS struct {
	vfs.FS
	walWritten atomic.Int64 // bytes written to WAL segments
	written    atomic.Int64 // bytes written to any file
	ioNs       atomic.Int64 // time inside Write and Sync
	mu         sync.Mutex
	syncs      []syncRec
}

func (f *tracedFS) reset() {
	f.written.Store(0)
	f.ioNs.Store(0)
	f.mu.Lock()
	f.syncs = f.syncs[:0]
	f.mu.Unlock()
}

func (f *tracedFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	base := filepath.Base(file.Name())
	return &tracedFile{File: file, fs: f, wal: strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")}, nil
}

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *tracedFS) Open(name string) (vfs.File, error) { return f.wrap(f.FS.Open(name)) }

func (f *tracedFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.synced(syncRec{start: start})
	return err
}

// synced records a finished fsync that began at r.start.
func (f *tracedFS) synced(r syncRec) {
	r.end = time.Now()
	f.ioNs.Add(int64(r.end.Sub(r.start)))
	f.mu.Lock()
	f.syncs = append(f.syncs, r)
	f.mu.Unlock()
}

type tracedFile struct {
	vfs.File
	fs  *tracedFS
	wal bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.ioNs.Add(int64(time.Since(start)))
	f.fs.written.Add(int64(n))
	if f.wal {
		f.fs.walWritten.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	r := syncRec{wal: f.wal, walWritten: f.fs.walWritten.Load(), start: time.Now()}
	err := f.File.Sync()
	f.fs.synced(r)
	return err
}

// --- the stack ---

func serveTraced(args []string) error {
	fl := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fl.String("workload", "", "workload")
	basePath := fl.String("base", "", "base N-Triples file")
	dir := fl.String("dir", "", "data directory")
	addr := fl.String("addr", "", "primary listen address")
	replicaAddr := fl.String("replica-addr", "", "replica listen address (ingest_replicated)")
	out := fl.String("out", "", "span summary output file")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	t := newTracer()
	stopping := make(chan os.Signal, 1)
	signal.Notify(stopping, syscall.SIGTERM, os.Interrupt)

	// Primary (or the only node), as eeserve boots it.
	reg := telemetry.NewRegistry()
	st := geostore.New(geostore.ModeIndexed)
	var db *storage.DB
	var pfs *tracedFS
	if w.durable {
		pfs = &tracedFS{FS: vfs.OS}
		start := time.Now()
		var err error
		db, err = storage.Open(filepath.Join(*dir, "primary"), storage.Options{SyncEvery: walSyncEvery, Metrics: storage.NewMetrics(reg), FS: pfs})
		if err != nil {
			return err
		}
		if _, err := db.Recover(st.RDF()); err != nil {
			return err
		}
		if err := st.RestoreGeometries(); err != nil {
			return err
		}
		t.bootStep("boot.recover_ms", start)
		st.RDF().SetJournal(&tracedJournal{j: db.Log(), t: t})
	}
	start := time.Now()
	f, err := os.Open(*basePath)
	if err != nil {
		return err
	}
	_, err = st.LoadNTriples(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	if err := st.RDF().CommitJournal(); err != nil {
		return err
	}
	t.bootStep("boot.load_ms", start)
	start = time.Now()
	st.Build()
	t.bootStep("boot.index_build_ms", start)
	eng := &tracedEngine{st: st, t: t, wal: pfs}
	var rfs *tracedFS // the replica's storage
	if w.replica {
		rfs = &tracedFS{FS: vfs.OS}
	}
	cfg := endpoint.Config{MaxInFlight: 16, QueryTimeout: 30 * time.Second, CacheSize: 256, Registry: reg}
	var feed *replication.Feed
	stopLoops := make(chan struct{})
	var loops sync.WaitGroup
	if db != nil {
		if db.SinceSnapshot() > 0 {
			start := time.Now()
			if _, err := db.Snapshot(st.RDF()); err != nil {
				return err
			}
			t.bootStep("boot.snapshot_ms", start)
		}
		if w.replica {
			if _, err := db.BumpEpoch(); err != nil {
				return err
			}
			feed = replication.NewFeed(replication.FeedConfig{DB: db, Token: replToken, Metrics: replication.NewMetrics(reg)})
			cfg.Replication = feed
		}
		cfg.Loader, cfg.LoadToken, cfg.Degraded = eng, loadToken, db.Degraded
		loops.Add(1)
		go snapshotLoop(db, st, t, true, stopLoops, &loops)
	}
	srv, err := listen(*addr, t.handler(endpoint.New(eng, cfg), pfs, rfs))
	if err != nil {
		return err
	}
	servers := []*http.Server{srv}

	// The replica, as eeserve -replica-of boots it.
	var rep *replication.Replica
	var rdb *storage.DB
	if w.replica {
		rdir := filepath.Join(*dir, "replica")
		start := time.Now()
		if _, err := replication.Bootstrap(nil, "http://"+*addr, replToken, rfs, rdir); err != nil {
			return fmt.Errorf("replica bootstrap: %w", err)
		}
		t.bootStep("boot.replica_bootstrap_ms", start)
		rreg := telemetry.NewRegistry()
		rst := geostore.New(geostore.ModeIndexed)
		start = time.Now()
		rdb, err = storage.Open(rdir, storage.Options{SyncEvery: walSyncEvery, Metrics: storage.NewMetrics(rreg), FS: rfs})
		if err != nil {
			return err
		}
		if _, err := rdb.Recover(rst.RDF()); err != nil {
			return err
		}
		if err := rst.RestoreGeometries(); err != nil {
			return err
		}
		t.bootStep("boot.recover_ms", start)
		rst.RDF().SetJournal(rdb.Log())
		start = time.Now()
		rst.Build()
		t.bootStep("boot.index_build_ms", start)
		rep, err = replication.NewReplica(replication.ReplicaConfig{PrimaryURL: "http://" + *addr, Token: replToken,
			Store: rst, DB: rdb, Metrics: replication.NewMetrics(rreg)})
		if err != nil {
			return err
		}
		loops.Add(2)
		go func() {
			defer loops.Done()
			rep.Run()
		}()
		go snapshotLoop(rdb, rst, t, false, stopLoops, &loops)
		rcfg := endpoint.Config{MaxInFlight: 16, QueryTimeout: 30 * time.Second, CacheSize: 256, Registry: rreg,
			Degraded: rdb.Degraded, ReadOnly: "replica",
			Replica: func() endpoint.ReplicaStatus {
				rs := rep.Status()
				return endpoint.ReplicaStatus{Primary: rs.Primary, Connected: rs.Connected, LagBytes: rs.LagBytes, LagSeconds: rs.LagSeconds, Err: rs.Err}
			}}
		rsrv, err := listen(*replicaAddr, endpoint.New(rst, rcfg))
		if err != nil {
			return err
		}
		servers = append(servers, rsrv)
	}

	<-stopping
	t.on.Store(false)
	for _, s := range servers {
		s.Close()
	}
	if feed != nil {
		feed.Close()
	}
	if rep != nil {
		rep.Stop()
	}
	close(stopLoops)
	loops.Wait()
	d := t.summarize(eng, pfs, rfs, *out+".spans")
	var errs []error
	for _, db := range []*storage.DB{rdb, db} {
		if db != nil {
			errs = append(errs, db.Close())
		}
	}
	if err := writeDump(*out, d); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func listen(addr string, h http.Handler) (*http.Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(l)
	return srv, nil
}

// snapshotLoop is eeserve's background compaction trigger: every poll,
// snapshot once -snapshot-every triples were journaled since the last.
// Primary snapshots are traced.
func snapshotLoop(db *storage.DB, st *geostore.Store, t *tracer, traced bool, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-time.After(snapshotPoll):
		}
		if st.RDF().JournalErr() != nil || db.SinceSnapshot() < snapshotEvery {
			continue
		}
		start := time.Now()
		if _, err := db.Snapshot(st.RDF()); err != nil {
			fmt.Fprintln(os.Stderr, "snapshot:", err)
			continue
		}
		if traced {
			t.add(span{name: "storage.snapshot", start: start, end: time.Now()})
		}
	}
}

func writeDump(path string, d traceDump) error {
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
