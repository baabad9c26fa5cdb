package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter after negative add = %d, want 3", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
}

func TestGaugePeakTracking(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(3)
	if g.Value() != 3 || g.Peak() != 10 {
		t.Fatalf("gauge = (%d, peak %d), want (3, peak 10)", g.Value(), g.Peak())
	}
	g.Add(20)
	if g.Value() != 23 || g.Peak() != 23 {
		t.Fatalf("gauge = (%d, peak %d), want (23, peak 23)", g.Value(), g.Peak())
	}
	g.Add(-5)
	if g.Value() != 18 || g.Peak() != 23 {
		t.Fatalf("gauge = (%d, peak %d), want (18, peak 23)", g.Value(), g.Peak())
	}
	g.Reset()
	if g.Value() != 0 || g.Peak() != 0 {
		t.Fatalf("gauge after reset = (%d, peak %d), want zeros", g.Value(), g.Peak())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("balanced adds left gauge at %d, want 0", g.Value())
	}
	if g.Peak() < 1 {
		t.Fatalf("peak = %d, want >= 1", g.Peak())
	}
}

func TestTimerStats(t *testing.T) {
	var tm Timer
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	tm.Observe(20 * time.Millisecond)
	if tm.Count() != 3 {
		t.Fatalf("count = %d, want 3", tm.Count())
	}
	if tm.Total() != 60*time.Millisecond {
		t.Fatalf("total = %v, want 60ms", tm.Total())
	}
	if tm.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", tm.Mean())
	}
	if tm.Max() != 30*time.Millisecond {
		t.Fatalf("max = %v, want 30ms", tm.Max())
	}
}

func TestTimerEmpty(t *testing.T) {
	var tm Timer
	if tm.Mean() != 0 || tm.Max() != 0 {
		t.Fatal("empty timer should report zeros")
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Inc()
	if got := r.Counter("a").Value(); got != 1 {
		t.Fatalf("second lookup saw %d, want 1", got)
	}
	if r.Counter("b") == c1 {
		t.Fatal("different names must give different counters")
	}
	g := r.Gauge("g")
	g.Set(7)
	if r.Gauge("g").Value() != 7 {
		t.Fatal("gauge lookup not stable")
	}
	tm := r.Timer("t")
	tm.Observe(time.Second)
	if r.Timer("t").Count() != 1 {
		t.Fatal("timer lookup not stable")
	}
}

func TestRegistryValuesCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Counter("idle")
	r.Gauge("g").Set(7)
	r.Timer("t").Observe(time.Millisecond)
	got := r.Values()
	want := map[string]int64{"c": 3, "idle": 0, "g": 7}
	if len(got) != len(want) {
		t.Fatalf("Values() = %v, want %v (timers left out)", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Values()[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Cfg", "Node", "Cores", "Speed")
	tb.AddRow("host", 4, 2.66)
	tb.AddRow("sd", 2, 2.0)
	out := tb.String()
	if !strings.Contains(out, "Cfg") || !strings.Contains(out, "host") {
		t.Fatalf("table missing content:\n%s", out)
	}
	if !strings.Contains(out, "2.66") {
		t.Fatalf("float not rendered with 2 decimals:\n%s", out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tb.rows))
	}
}

func TestTableDurationFormatting(t *testing.T) {
	tb := NewTable("", "d")
	tb.AddRow(90 * time.Second)
	tb.AddRow(1500 * time.Millisecond)
	tb.AddRow(2500 * time.Microsecond)
	tb.AddRow(300 * time.Microsecond)
	out := tb.String()
	for _, want := range []string{"1.5min", "1.50s", "2.50ms", "300µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureSeriesAndLookup(t *testing.T) {
	f := NewFigure("Fig", "size", "sec")
	s := f.Line("duo")
	s.Add(500, 12.5)
	s.Add(1000, 25.0)
	if y, ok := s.At(1000); !ok || y != 25.0 {
		t.Fatalf("At(1000) = (%v,%v), want (25,true)", y, ok)
	}
	if _, ok := s.At(123); ok {
		t.Fatal("At on absent x should report false")
	}
}

func TestFigureRendersUnionOfXs(t *testing.T) {
	f := NewFigure("Fig", "size", "sec")
	a := f.Line("a")
	a.Add(2, 1)
	a.Add(1, 2)
	b := f.Line("b")
	b.Add(3, 9)
	out := f.String()
	// x column should be sorted 1,2,3 and missing cells rendered as "-".
	i1 := strings.Index(out, "\n1 ")
	i2 := strings.Index(out, "\n2 ")
	i3 := strings.Index(out, "\n3 ")
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Fatalf("x values not sorted in output:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cell not rendered as '-':\n%s", out)
	}
}

func TestFigureCSV(t *testing.T) {
	f := NewFigure("Fig", "size", "sec")
	a := f.Line("plain")
	a.Add(1, 2.5)
	a.Add(2, 3)
	b := f.Line(`needs,"quoting"`)
	b.Add(1, 9)
	csv := f.CSV()
	want := "size,plain,\"needs,\"\"quoting\"\"\"\n1,2.5,9\n2,3,\n"
	if csv != want {
		t.Fatalf("CSV =\n%q\nwant\n%q", csv, want)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("x,y", 2)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
