package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// conn is one load-generator connection: its own transport holding at
// most one keep-alive connection, so the connection count is exactly
// the number of conns a workload opens.
type conn struct {
	c   *http.Client
	buf bytes.Buffer // response body, reused: callers must not keep it
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole body.
func (c *conn) do(req *http.Request) (int, []byte, error) {
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *conn) get(base, path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

// query sends one GET with its request ID, so the server (and the
// traced stack's wrapper) need not mint one.
func (c *conn) query(base, path, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	return c.do(req)
}

// health is the subset of /healthz the benchmark reads.
type health struct {
	Status  string `json:"status"`
	Triples int64  `json:"triples"`
}

func (c *conn) health(base string) (health, error) {
	var h health
	code, body, err := c.get(base, "/healthz")
	if err != nil {
		return h, err
	}
	if code != http.StatusOK {
		return h, fmt.Errorf("healthz: HTTP %d", code)
	}
	return h, json.Unmarshal(body, &h)
}

// ackDoc is the POST /load response.
type ackDoc struct {
	Loaded  int64 `json:"loaded"`
	Triples int64 `json:"triples"`
}

func (c *conn) load(base, token, reqID string, body []byte) (ackDoc, int, error) {
	var a ackDoc
	req, err := http.NewRequest(http.MethodPost, base+"/load", bytes.NewReader(body))
	if err != nil {
		return a, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/n-triples")
	req.Header.Set("X-Request-ID", reqID)
	code, resp, err := c.do(req)
	if err != nil || code/100 != 2 {
		return a, code, err
	}
	return a, code, json.Unmarshal(resp, &a)
}

// scrape reads the named counter families from /metrics, summing every
// labelled sample of a family.
func (c *conn) scrape(base string, families []string) (map[string]float64, error) {
	code, body, err := c.get(base, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", code)
	}
	want := map[string]bool{}
	for _, f := range families {
		want[f] = true
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// counterFamilies are the program's own counters the benchmark reports
// as per-layer counts: deltas over the timed window, summed over nodes.
var counterFamilies = []string{
	"sparql_cache_hits_total",
	"sparql_cache_misses_total",
	"sparql_rejected_total",
	"sparql_plan_cache_hits_total",
	"sparql_plan_cache_misses_total",
	"storage_wal_commits_total",
	"storage_wal_syncs_total",
	"storage_snapshot_writes_total",
	"storage_snapshot_compactions_total",
	"storage_io_errors_total",
	"replication_frames_shipped_total",
	"replication_bytes_shipped_total",
	"replication_frames_applied_total",
	"replication_triples_applied_total",
	"replication_reconnects_total",
	"replication_epoch_rejections_total",
}

// decodeRows fully decodes a result body into variable → lexical value
// rows.
func decodeRows(format string, body []byte) ([]map[string]string, error) {
	var rows []map[string]string
	switch format {
	case "csv":
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("csv: no header")
		}
		for _, rec := range recs[1:] {
			r := map[string]string{}
			for i, v := range recs[0] {
				if i < len(rec) {
					r[v] = rec[i]
				}
			}
			rows = append(rows, r)
		}
	case "geojson":
		var doc struct {
			Features []struct {
				ID         string         `json:"id"`
				Properties map[string]any `json:"properties"`
			} `json:"features"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, err
		}
		for _, f := range doc.Features {
			r := map[string]string{"f": f.ID}
			for k, v := range f.Properties {
				r[k] = fmt.Sprint(v)
			}
			rows = append(rows, r)
		}
	default:
		var doc struct {
			Results struct {
				Bindings []map[string]struct {
					Value string `json:"value"`
				} `json:"bindings"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, err
		}
		for _, b := range doc.Results.Bindings {
			r := map[string]string{}
			for k, v := range b {
				r[k] = v.Value
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// lat collects latencies in milliseconds; safe for concurrent use.
type lat struct {
	mu sync.Mutex
	ms []float64
}

func (l *lat) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/1e6)
	l.mu.Unlock()
}

func (l *lat) n() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

func (l *lat) pct(p float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return percentile(l.ms, p)
}

// percentile returns the nearest-rank p-th percentile (0 for no data).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// streamHash fingerprints the generated request stream.
type streamHash struct{ h hash.Hash }

func newStreamHash() *streamHash { return &streamHash{sha256.New()} }

func (s *streamHash) add(part string) {
	io.WriteString(s.h, part)
	s.h.Write([]byte{0})
}

func (s *streamHash) hex() string { return fmt.Sprintf("%x", s.h.Sum(nil))[:16] }
