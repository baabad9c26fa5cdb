package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a deterministic amount per call.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.Finish()           // must not panic
	_ = s.Child("child") // must not panic
	if s.Duration() != 0 {
		t.Fatal("nil span has duration")
	}
	if tr.Roots() != nil {
		t.Fatal("nil tracer has roots")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := newWithClock(fakeClock(time.Second))
	s := tr.Start("job") // t=1
	c := s.Child("half") // t=2
	c.Finish()           // t=3
	s.Finish()           // t=4
	if got := c.Duration(); got != time.Second {
		t.Fatalf("child duration = %v, want 1s", got)
	}
	if got := s.Duration(); got != 3*time.Second {
		t.Fatalf("root duration = %v, want 3s", got)
	}
	// Double finish keeps the first end.
	s.Finish()
	if got := s.Duration(); got != 3*time.Second {
		t.Fatalf("double finish changed duration: %v", got)
	}
	if len(tr.Roots()) != 1 || len(s.Children()) != 1 {
		t.Fatal("span tree shape wrong")
	}
}

func TestRenderGantt(t *testing.T) {
	tr := newWithClock(fakeClock(time.Second))
	job := tr.Start("job")       // 1
	off := job.Child("offload")  // 2
	local := job.Child("matmul") // 3
	local.Finish()               // 4
	off.Finish()                 // 5
	job.Finish()                 // 6

	var b strings.Builder
	if err := Render(&b, tr.Roots(), 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"job", "offload", "matmul", "="} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d rows, want 3:\n%s", len(lines), out)
	}
	// Children are indented.
	if !strings.HasPrefix(lines[1], "  offload") {
		t.Fatalf("child not indented: %q", lines[1])
	}
	// The root bar must span at least as many columns as any child bar.
	count := func(s string) int { return strings.Count(s, "=") }
	if count(lines[0]) < count(lines[1]) || count(lines[0]) < count(lines[2]) {
		t.Fatalf("root bar shorter than child bars:\n%s", out)
	}
}

func TestRenderEmptyAndOpenSpans(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no spans") {
		t.Fatal("empty render should say so")
	}
	tr := newWithClock(fakeClock(time.Second))
	s := tr.Start("open") // never finished
	b.Reset()
	if err := Render(&b, tr.Roots(), 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "open") {
		t.Fatal("open span missing from render")
	}
	_ = s
}

func TestConcurrentChildren(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("c")
			c.Finish()
		}()
	}
	wg.Wait()
	root.Finish()
	if got := len(root.Children()); got != 16 {
		t.Fatalf("%d children, want 16", got)
	}
}

func newWithClock(clock func() time.Time) *Tracer { return &Tracer{clock: clock} }
