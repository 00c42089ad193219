// Command eebench runs the ExtremeEarth experiment suite (E1–E15, each
// documented on its runner in internal/experiments) and prints each
// experiment's result table.
//
// Usage:
//
//	eebench                               # run everything at full scale
//	eebench -quick                        # reduced workloads (~seconds)
//	eebench -exp E4,E11                   # selected experiments only
//	eebench -bench-out BENCH_query.json   # query-executor group + JSON report
//	eebench -bench-group spatial -bench-out BENCH_spatial.json
//	                                      # spatial-join group + JSON report
//	eebench -bench-group parallel -bench-out BENCH_parallel.json
//	                                      # morsel-executor group + JSON report
//	eebench -bench-group analyze -bench-out BENCH_analyze.json
//	                                      # EXPLAIN ANALYZE overhead group
//	eebench -bench-group fault -bench-out BENCH_fault.json
//	                                      # vfs seam overhead group
//	eebench -bench-group repl -bench-out BENCH_repl.json
//	                                      # WAL-shipping replication group
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "run reduced workloads")
	exp := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	benchOut := flag.String("bench-out", "",
		"run a benchmark group and write its JSON report to this path (e.g. BENCH_query.json)")
	benchGroup := flag.String("bench-group", "query",
		"benchmark group for -bench-out: query (slot executor), spatial (index spatial join), parallel (morsel-driven executor), analyze (EXPLAIN ANALYZE overhead), fault (vfs seam overhead) or repl (WAL-shipping replication)")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick}
	start := time.Now()
	if *benchOut != "" {
		switch *benchGroup {
		case "query":
			table, rep := experiments.QueryBench(cfg)
			table.Fprint(os.Stdout)
			if err := experiments.WriteQueryBenchJSON(*benchOut, rep); err != nil {
				log.Fatalf("eebench: write %s: %v", *benchOut, err)
			}
		case "spatial":
			table, rep := experiments.SpatialJoinBench(cfg)
			table.Fprint(os.Stdout)
			if err := experiments.WriteSpatialBenchJSON(*benchOut, rep); err != nil {
				log.Fatalf("eebench: write %s: %v", *benchOut, err)
			}
		case "parallel":
			table, rep := experiments.ParallelBench(cfg)
			table.Fprint(os.Stdout)
			if err := experiments.WriteParallelBenchJSON(*benchOut, rep); err != nil {
				log.Fatalf("eebench: write %s: %v", *benchOut, err)
			}
		case "analyze":
			table, rep := experiments.AnalyzeBench(cfg)
			table.Fprint(os.Stdout)
			if err := experiments.WriteAnalyzeBenchJSON(*benchOut, rep); err != nil {
				log.Fatalf("eebench: write %s: %v", *benchOut, err)
			}
		case "fault":
			table, rep := experiments.FaultBench(cfg)
			table.Fprint(os.Stdout)
			if err := experiments.WriteFaultBenchJSON(*benchOut, rep); err != nil {
				log.Fatalf("eebench: write %s: %v", *benchOut, err)
			}
		case "repl":
			table, rep := experiments.ReplBench(cfg)
			table.Fprint(os.Stdout)
			if err := experiments.WriteReplBenchJSON(*benchOut, rep); err != nil {
				log.Fatalf("eebench: write %s: %v", *benchOut, err)
			}
		default:
			log.Fatalf("eebench: unknown bench group %q (use query, spatial, parallel, analyze, fault or repl)", *benchGroup)
		}
		fmt.Printf("\nwrote %s (%v)\n", *benchOut, time.Since(start).Round(time.Millisecond))
		return
	}
	if *exp == "" {
		for _, t := range experiments.All(cfg) {
			t.Fprint(os.Stdout)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			run, ok := experiments.ByID(id)
			if !ok {
				log.Fatalf("eebench: unknown experiment %q (use E1..E15)", id)
			}
			run(cfg).Fprint(os.Stdout)
		}
	}
	fmt.Printf("\ntotal: %v\n", time.Since(start).Round(time.Millisecond))
}
