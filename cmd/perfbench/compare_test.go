package main

import (
	"bytes"
	"strings"
	"testing"
)

// compareSpec is a two-metric benchmark: a latency that may rise 5 % and
// a rate that may fall 5 %.
var compareSpec = &benchmarkSpec{
	Workloads: []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{{Name: "w"}},
	EndToEnd: []metricDecl{
		{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.05},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.05},
	},
}

func synthetic(latMs, rate float64, failed int) []*result {
	return []*result{{
		Workload: "w", Correct: failed == 0, Attempted: 100, Failed: failed,
		Metrics: map[string]metric{"lat_ms": {latMs, "ms"}, "rate": {rate, "1/s"}},
	}}
}

func TestCompare(t *testing.T) {
	base := synthetic(100, 50, 0)
	missing := synthetic(100, 50, 0)
	delete(missing[0].Metrics, "rate")
	traced := synthetic(100, 50, 0)
	traced[0].Traced = true

	cases := []struct {
		name    string
		b       []*result
		wantBad int
		wantRow string // a fragment the failing (or, for 0, any) row must contain
	}{
		{"identical", synthetic(100, 50, 0), 0, "ok"},
		{"inside both bounds", synthetic(104.9, 47.6, 0), 0, "ok"},
		{"better in both directions", synthetic(60, 90, 0), 0, "ok"},
		{"latency past its bound", synthetic(105.1, 50, 0), 1, "lat_ms"},
		{"rate past its bound", synthetic(100, 47.4, 0), 1, "rate"},
		{"both past their bounds", synthetic(120, 30, 0), 2, "WORSE"},
		{"metric missing", missing, 1, "MISSING"},
		{"metric reported as 0", synthetic(100, 0, 0), 1, "MISSING"},
		{"workload missing", nil, 1, "(all)"},
		{"only a traced result", traced, 1, "(all)"},
		{"more failed operations", synthetic(100, 50, 1), 1, "failed_ops_ratio"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		bad := compare(&out, compareSpec, base, c.b)
		if bad != c.wantBad {
			t.Errorf("%s: %d failing rows, want %d\n%s", c.name, bad, c.wantBad, out.String())
		}
		found := false
		for _, row := range strings.Split(out.String(), "\n") {
			if strings.Contains(row, c.wantRow) && (c.wantBad == 0 || strings.Contains(row, "WORSE") || strings.Contains(row, "MISSING")) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no row mentions %q\n%s", c.name, c.wantRow, out.String())
		}
	}

	// Fewer failures than the base is not a regression.
	if bad := compare(&bytes.Buffer{}, compareSpec, synthetic(100, 50, 2), synthetic(100, 50, 1)); bad != 0 {
		t.Errorf("a lower failed share counted as %d regressions", bad)
	}
}
