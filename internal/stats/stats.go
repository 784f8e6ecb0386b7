// Package stats provides the small numeric and table-formatting helpers
// the experiment drivers use to print the paper's figure series.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Mean returns the arithmetic mean; it panics on an empty slice.
func Mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table accumulates rows and renders them fixed-width or as CSV.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are formatted with %v, and float64 cells
// with four significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as comma-separated values (cells are known
// not to contain commas; no quoting is performed).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.headers, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
