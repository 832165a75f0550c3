package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result: one row per thread count (or per
// sweep point), one column per series.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a formatted row.
func (tb *Table) AddRow(cells ...string) {
	tb.Rows = append(tb.Rows, cells)
}

// addRows appends one row per thread count of a sweep: the count, then
// cells of each of its results in series order (rows as Options.sweep
// returns them).
func (tb *Table) addRows(threads []int, rows [][]*Result, cells func(res *Result) []string) {
	for i, n := range threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, res := range rows[i] {
			row = append(row, cells(res)...)
		}
		tb.AddRow(row...)
	}
}

// Fprint writes the table in aligned-column form.
func (tb *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n", tb.Title)
	if tb.Note != "" {
		fmt.Fprintf(w, "%s\n", tb.Note)
	}
	widths := make([]int, len(tb.Cols))
	for i, c := range tb.Cols {
		widths[i] = len(c)
	}
	for _, row := range tb.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(tb.Cols)
	for _, row := range tb.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (tb *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(tb.Cols, ","))
	for _, row := range tb.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// f0 formats a float with no decimals; f2 with two.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
