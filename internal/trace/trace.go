// Package trace records timed spans of McSD jobs — the offload leg, the
// concurrent host-side computation, individual node attempts — and renders
// them as a text Gantt chart, making the framework's load balancing
// visible ("did the host work actually overlap the SD run?").
//
// All methods are nil-receiver safe, so instrumented code pays nothing
// when no tracer is installed.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval, possibly with children.
type Span struct {
	Name  string
	Start time.Time

	mu       sync.Mutex
	end      time.Time
	children []*Span
	clock    func() time.Time
}

// Tracer collects root spans. The zero value is not usable; call New.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
	clock func() time.Time
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{clock: time.Now} }

// Start opens a root span. Safe on a nil tracer (returns nil).
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, Start: t.clock(), clock: t.clock}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the collected root spans in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// Child opens a sub-span. Safe on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: s.clock(), clock: s.clock}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish closes the span. Safe on a nil span; extra calls keep the first
// end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.clock()
	}
	s.mu.Unlock()
}

// End returns the span's end time (zero if still open).
func (s *Span) End() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Duration returns End-Start, or zero while open.
func (s *Span) Duration() time.Duration {
	end := s.End()
	if end.IsZero() {
		return 0
	}
	return end.Sub(s.Start)
}

// Children returns the sub-spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Render writes a text Gantt chart of the spans (and their children) to w,
// width columns wide. Open spans render to the latest known end.
func Render(w io.Writer, spans []*Span, width int) error {
	if width < 20 {
		width = 20
	}
	var flat []renderRow
	var min, max time.Time
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		if s == nil {
			return
		}
		end := s.End()
		if min.IsZero() || s.Start.Before(min) {
			min = s.Start
		}
		if end.After(max) {
			max = end
		}
		flat = append(flat, renderRow{span: s, depth: depth})
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	for _, s := range spans {
		walk(s, 0)
	}
	if len(flat) == 0 {
		_, err := fmt.Fprintln(w, "(no spans)")
		return err
	}
	if max.IsZero() || !max.After(min) {
		max = min.Add(time.Nanosecond)
	}
	total := max.Sub(min)

	nameWidth := 0
	for _, r := range flat {
		if n := len(r.span.Name) + 2*r.depth; n > nameWidth {
			nameWidth = n
		}
	}
	scale := func(t time.Time) int {
		if t.IsZero() {
			t = max
		}
		pos := int(float64(t.Sub(min)) / float64(total) * float64(width))
		if pos < 0 {
			pos = 0
		}
		if pos > width {
			pos = width
		}
		return pos
	}
	for _, r := range flat {
		startCol := scale(r.span.Start)
		endCol := scale(r.span.End())
		if endCol <= startCol {
			endCol = startCol + 1
		}
		bar := strings.Repeat(" ", startCol) +
			strings.Repeat("=", endCol-startCol) +
			strings.Repeat(" ", width-endCol)
		label := strings.Repeat("  ", r.depth) + r.span.Name
		dur := r.span.Duration()
		if _, err := fmt.Fprintf(w, "%-*s |%s| %v\n", nameWidth, label, bar, dur.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

type renderRow struct {
	span  *Span
	depth int
}
