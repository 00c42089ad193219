// Package experiments implements the E1–E15 experiment suite derived
// from the paper's quantitative claims; each experiment's runner (E1
// through E15) documents the claim it tests. Each experiment builds its
// workload, runs every configuration, and returns a printable table.
// cmd/eebench prints the tables; the repository-root benchmarks reuse
// the same kernels.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/storage/vfs"
)

// Table is one experiment's result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Config scales the experiment workloads.
type Config struct {
	// Quick shrinks workloads for tests and smoke runs.
	Quick bool
	// FS is the filesystem the seam-mode arms of FaultBench run
	// through; nil means vfs.OS, the production default. Injecting a
	// fault-injecting vfs implementation runs the same workloads over
	// it without touching the direct-os baseline arms.
	FS vfs.FS
}

func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// All runs every experiment in order.
func All(cfg Config) []*Table {
	return []*Table{
		E1(cfg), E2(cfg), E3(cfg), E4(cfg), E5(cfg),
		E6(cfg), E7(cfg), E8(cfg), E9(cfg), E10(cfg),
		E11(cfg), E12(cfg), E13(cfg), E14(cfg), E15(cfg),
	}
}

// ByID returns the experiment runner for an ID like "E4".
func ByID(id string) (func(Config) *Table, bool) {
	m := map[string]func(Config) *Table{
		"E1": E1, "E2": E2, "E3": E3, "E4": E4, "E5": E5,
		"E6": E6, "E7": E7, "E8": E8, "E9": E9, "E10": E10,
		"E11": E11, "E12": E12, "E13": E13, "E14": E14, "E15": E15,
	}
	f, ok := m[strings.ToUpper(id)]
	return f, ok
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func i0(v int) string     { return fmt.Sprintf("%d", v) }
