package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Table renders aligned plain-text tables in the style of the paper's
// Table I and the per-figure data dumps. It is not safe for concurrent use.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table. It satisfies io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return d.String()
	}
}

// Series is one named line of a figure: x values (e.g. data sizes) and y
// values (e.g. elapsed seconds or speedups).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series sharing an x axis, mirroring one sub-figure of
// the paper (e.g. Fig. 8(b)).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Line adds a named series and returns it for appending points.
func (f *Figure) Line(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Add appends one (x, y) point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// At returns the y value at the given x, or (0, false) when absent.
func (s *Series) At(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// WriteTo renders the figure as an aligned data table, one column per
// series, one row per x value.
func (f *Figure) WriteTo(w io.Writer) (int64, error) {
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(fmt.Sprintf("%s  [y: %s]", f.Title, f.YLabel), headers...)
	for _, x := range f.xs() {
		row := make([]any, 0, len(f.Series)+1)
		row = append(row, fmt.Sprintf("%g", x))
		for _, s := range f.Series {
			if y, ok := s.At(x); ok {
				row = append(row, y)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.WriteTo(w)
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// CSV renders the figure as comma-separated values: a header row with the
// x label and series names, then one row per x value. Missing points are
// empty cells. Cells containing commas or quotes are quoted.
func (f *Figure) CSV() string {
	var b strings.Builder
	cells := []string{f.XLabel}
	for _, s := range f.Series {
		cells = append(cells, s.Name)
	}
	writeCSVRow(&b, cells)
	for _, x := range f.xs() {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range f.Series {
			if y, ok := s.At(x); ok {
				row = append(row, strconv.FormatFloat(y, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		writeCSVRow(&b, row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.headers)
	for _, row := range t.rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
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

// xs returns the union of all series x values in ascending order.
func (f *Figure) xs() []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}
