// Command perfbench is the repository's end-to-end benchmark: it drives
// the real eeserve binary over loopback and reports the serving path's
// user-visible numbers, and in a separate traced run splits the time
// and work across the serving layers (endpoint, sparql, geostore, rdf,
// storage, replication and boot).
//
// Run it from the repository root through run.sh, which builds eeserve
// and this package first:
//
//	bash perfbench/run.sh --workload read_cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; every line before it is a
// human-readable report. METRICS.md lists every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveTraced(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	// The load generator keeps little live heap; a sparse GC keeps its
	// collections from competing with the server for the cores.
	debug.SetGCPercent(400)
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	eeserve  string // eeserve binary
	self     string // this binary, for the traced server
	work     string // scratch directory for data files, WAL dirs and logs
	traces   string // where traced runs leave their span summary and spans
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all to run every workload in turn (see METRICS.md)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced in-process stack as well and reports per-layer metrics")
	fs.StringVar(&o.eeserve, "eeserve", "", "path of the eeserve binary")
	fs.StringVar(&o.work, "work", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace == 1
	if o.eeserve == "" || o.work == "" {
		return fmt.Errorf("-eeserve and -work are required (run through perfbench/run.sh)")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	o.self = self
	o.traces = filepath.Join(o.work, "traces")
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadOrder
	}
	correct := true
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			return fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadOrder)
		}
		o.workload = name
		out, err := runWorkload(o, w)
		if err != nil {
			return err
		}
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		correct = correct && out.Correct
	}
	if !correct {
		return fmt.Errorf("wrong answers or wrong end state (see the report above)")
	}
	return nil
}

// runWorkload runs one workload: the untraced run, and with -trace 1
// the traced run after it.
func runWorkload(o options, w *workload) (*result, error) {
	o.work = filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.work)
	trace := 0
	if o.trace {
		trace = 1
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d connections=%d\n",
		o.workload, o.seed, o.seconds, trace, runtime.GOMAXPROCS(0), w.conns)

	reps := 5 // boots per run; setup_s is their median
	if o.trace {
		reps = 1
	}
	plain, err := runOnce(o, w, false, reps)
	if err != nil {
		return nil, err
	}
	plain.print("untraced")
	out := &result{Correct: plain.correct, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if !o.trace {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{plain.gated(w, m.name), m.unit}
		}
		return out, nil
	}
	traced, err := runOnce(o, w, true, 1)
	if err != nil {
		return nil, err
	}
	traced.print("traced (in-process stack: every node of the workload in one perfbench serve process)")
	out.Correct = out.Correct && traced.correct
	out.Attempted += traced.attempted
	out.Failed += traced.failed
	for _, m := range perLayer {
		out.Metrics[m.name] = metric{0, m.unit}
	}
	for k, v := range traced.layers {
		setLayer(out.Metrics, k, v)
	}
	for _, d := range e2eDefs {
		setLayer(out.Metrics, "e2e."+d.name, plain.e2e[d.name])
		setLayer(out.Metrics, "traced."+d.name, traced.e2e[d.name])
	}
	for _, f := range counterFamilies {
		setLayer(out.Metrics, "count."+f, plain.counters[f])
	}
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p99_ms"} {
		u, t := plain.gated(w, name), traced.gated(w, name)
		ov := 0.0
		if u != 0 {
			ov = (t - u) / u
		}
		setLayer(out.Metrics, "trace_overhead."+name, ov)
		fmt.Printf("tracing overhead %-10s untraced=%.4f traced=%.4f gap=%+.1f%%\n", name, u, t, ov*100)
	}
	return out, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func setLayer(m map[string]metric, name string, v float64) {
	if cur, ok := m[name]; ok {
		m[name] = metric{v, cur.Unit}
	}
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
