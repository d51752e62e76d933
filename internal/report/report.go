// Package report renders experiment results as fixed-width ASCII
// tables (for the terminal and EXPERIMENTS.md) and CSV (for plotting).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table, aligned, to w.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		_, err := fmt.Fprintln(w, sb.String())
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "note: %s\n", t.Note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// csvEscape quotes a cell if it contains separators.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// FprintCSV writes the table as CSV (headers first) to w.
func (t *Table) FprintCSV(w io.Writer) error {
	hs := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		hs[i] = csvEscape(h)
	}
	if _, err := fmt.Fprintln(w, strings.Join(hs, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		cs := make([]string, len(r))
		for i, c := range r {
			cs[i] = csvEscape(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cs, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Pct formats a percentage with sign, one decimal.
func Pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// F3 formats a float with three decimals.
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }

// F4 formats a float with four decimals.
func F4(v float64) string { return fmt.Sprintf("%.4f", v) }
