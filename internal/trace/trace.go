// Package trace renders experiment output: aligned text tables, CSV and
// markdown. Only the standard library is used; writers never fail
// silently (errors propagate).
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table accumulates rows and renders them as an aligned text table or as
// CSV. The zero value is not usable; construct with NewTable.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	if len(headers) == 0 {
		panic("trace: table needs at least one column")
	}
	return &Table{title: title, headers: headers}
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// NumRows reports the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

// Snapshot returns copies of the headers and rows for serialization.
func (t *Table) Snapshot() (headers []string, rows [][]string) {
	headers = append([]string(nil), t.headers...)
	rows = make([][]string, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]string(nil), r...)
	}
	return headers, rows
}

// AddRow appends a row; the number of cells must match the headers.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.headers) {
		panic(fmt.Sprintf("trace: row has %d cells, table has %d columns", len(cells), len(t.headers)))
	}
	t.rows = append(t.rows, cells)
}

// AddRowValues appends a row, formatting each value with %v for
// convenience (floats with 4 significant digits).
func (t *Table) AddRowValues(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = strconv.FormatFloat(x, 'g', 4, 64)
		case float32:
			cells[i] = strconv.FormatFloat(float64(x), 'g', 4, 32)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// WriteText renders an aligned, boxed text table.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as RFC-4180-ish CSV (quotes only when
// needed).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMarkdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.title)
	}
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.headers)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
