package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/endpoint"
	"repro/internal/sparql"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// summarize derives the per-layer metrics from the window's spans and
// runs the side calls (sparql.Parse + Canonical, endpoint.WriteResults,
// Store.QueryAnalyze) on the sampled inputs. It also writes every span
// out, one per line, next to the summary.
func (t *tracer) summarize(eng *tracedEngine, pfs, rfs *tracedFS, spanPath string) traceDump {
	t.mu.Lock()
	spans := t.spans
	samples := t.samples
	t.mu.Unlock()
	L := map[string]float64{}
	for k, v := range t.boot {
		L[k] = v
	}

	var dump bytes.Buffer
	queries := map[string]span{}
	var qMs, qAfterMs, loadMs, commitMs, snapMs []float64
	var loads []span
	for _, s := range spans {
		fmt.Fprintf(&dump, "%s\t%s\t%d\t%d\t%d\t%d\n", s.name, s.rid, s.start.UnixNano(), s.end.UnixNano(), s.rows, s.bytes)
		d := ms(s.end.Sub(s.start))
		switch s.name {
		case "geostore.query":
			queries[s.rid] = s
			if s.afterWrite {
				qAfterMs = append(qAfterMs, d)
			} else {
				qMs = append(qMs, d)
			}
		case "geostore.load":
			loads = append(loads, s)
			loadMs = append(loadMs, d)
		case "storage.commit":
			commitMs = append(commitMs, d)
		case "storage.snapshot":
			snapMs = append(snapMs, d)
		}
	}
	os.WriteFile(spanPath, dump.Bytes(), 0o644) // best effort: the summary is what the run reports

	var selfMs, writeMs []float64
	var hits, misses, rejected int
	var missBytes, missRows int64
	acks := map[string]time.Time{}
	for _, s := range spans {
		switch s.name {
		case "request/sparql":
			self := ms(s.end.Sub(s.start)) - float64(s.writeNs)/1e6
			if q, ok := queries[s.rid]; ok {
				self -= ms(q.end.Sub(q.start))
				if s.cache == "MISS" {
					missBytes += s.bytes
					missRows += int64(q.rows)
				}
			}
			selfMs = append(selfMs, self)
			writeMs = append(writeMs, float64(s.writeNs)/1e6)
			switch s.cache {
			case "HIT":
				hits++
			case "MISS":
				misses++
			}
			if s.status == 503 {
				rejected++
			}
		case "request/load":
			acks[s.rid] = s.end
		}
	}
	nreq := len(selfMs)
	L["endpoint.request_self_ms"] = mean(selfMs)
	L["endpoint.write_ms"] = mean(writeMs)
	if hits+misses > 0 {
		L["endpoint.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if nreq > 0 {
		L["endpoint.rejected_per_request"] = float64(rejected) / float64(nreq)
		L["endpoint.alloc_bytes_per_query"] = float64(t.msEnd.TotalAlloc-t.msStart.TotalAlloc) / float64(nreq)
		L["endpoint.allocs_per_query"] = float64(t.msEnd.Mallocs-t.msStart.Mallocs) / float64(nreq)
	}
	if missRows > 0 {
		L["endpoint.response_bytes_per_row"] = float64(missBytes) / float64(missRows)
	}
	L["geostore.query_ms"] = mean(qMs)
	L["geostore.query_after_write_ms"] = mean(qAfterMs)
	L["geostore.load_ms"] = mean(loadMs)
	L["storage.wal_commit_ms"] = mean(commitMs)
	L["storage.snapshot_ms"] = mean(snapMs)
	L["storage.snapshots"] = float64(len(snapMs))

	var d traceDump
	if pfs != nil && len(loads) > 0 {
		pfs.mu.Lock()
		syncs := append([]syncRec(nil), pfs.syncs...)
		pfs.mu.Unlock()
		var fsyncMs []float64
		walSyncs := 0
		for _, s := range syncs {
			fsyncMs = append(fsyncMs, ms(s.end.Sub(s.start)))
			if s.wal {
				walSyncs++
			}
		}
		L["storage.fsync_ms"] = mean(fsyncMs)
		L["storage.fsyncs_per_load"] = float64(walSyncs) / float64(len(loads))
		var in int64
		var ackToDurable []float64
		for _, l := range loads {
			in += l.bytes
			// Durable once a WAL fsync began after the load's bytes were written.
			for _, s := range syncs {
				if s.wal && s.walWritten >= l.walBytes {
					d.Loads = append(d.Loads, loadTrace{ID: l.rid, DurableNs: s.end.UnixNano()})
					if ack, ok := acks[l.rid]; ok {
						ackToDurable = append(ackToDurable, max(0, ms(s.end.Sub(ack))))
					}
					break
				}
			}
		}
		L["storage.ack_to_durable_ms"] = mean(ackToDurable)
		if in > 0 {
			L["storage.disk_bytes_per_input_byte"] = float64(pfs.written.Load()) / float64(in)
		}
		if rfs != nil {
			L["replication.apply_ms"] = float64(rfs.ioNs.Load()) / 1e6 / float64(len(loads))
		}
	}

	// Side calls on the sampled inputs, after the window.
	var parseMs, serMs []float64
	var examined, rows int64
	analyzed := 0
	for _, smp := range samples {
		start := time.Now()
		q, err := sparql.Parse(smp.text)
		if err != nil {
			continue
		}
		_ = q.Canonical()
		parseMs = append(parseMs, ms(time.Since(start)))
		if smp.res != nil {
			var buf bytes.Buffer
			start := time.Now()
			if endpoint.WriteResults(&buf, smp.format, smp.res, "") == nil {
				serMs = append(serMs, ms(time.Since(start)))
			}
		}
		if analyzed < analyzeSampleSize {
			analyzed++
			if _, prof, err := eng.st.QueryAnalyze(context.Background(), q); err == nil && prof != nil {
				examined += prof.SeedRows
				for _, st := range prof.Steps {
					examined += st.Matches
				}
				rows += int64(prof.Rows)
			}
		}
	}
	L["sparql.parse_ms"] = mean(parseMs)
	L["endpoint.serialize_ms"] = mean(serMs)
	if rows > 0 {
		L["rdf.rows_examined_per_result"] = float64(examined) / float64(rows)
	}
	if n := eng.st.Len(); n > 0 {
		m := eng.st.MemoryStats()
		L["rdf.store_bytes_per_triple"] = float64(m.DictBytes+m.IndexBytes) / float64(n)
	}
	d.Layers = L
	return d
}
