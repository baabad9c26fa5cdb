package experiments

import (
	"strings"
	"testing"
)

func TestTable1HasFiveNodes(t *testing.T) {
	tbl := Table1()
	if rows := strings.Count(tbl.CSV(), "\n") - 1; rows != 5 {
		t.Fatalf("Table I has %d rows, want 5", rows)
	}
}

func TestFig8aSeriesAndRanges(t *testing.T) {
	fig, err := Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("Fig 8(a) has %d series, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(SizesA) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Y), len(SizesA))
		}
		for i, y := range s.Y {
			if y < 1.5 || y > 4.5 {
				t.Errorf("series %q point %d = %.2f, outside the paper's 1.5-4.5 band", s.Name, i, y)
			}
		}
	}
	// Quad series above duo series for the same workload.
	quadWC, duoWC := fig.Series[0], fig.Series[2]
	for i := range quadWC.Y {
		if quadWC.Y[i] <= duoWC.Y[i] {
			t.Errorf("quad WC speedup (%.2f) not above duo (%.2f) at point %d",
				quadWC.Y[i], duoWC.Y[i], i)
		}
	}
}

func TestFig8bGrowthLinearOrdered(t *testing.T) {
	fig, err := Fig8b()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("Fig 8(b) has %d series, want duo+quad", len(fig.Series))
	}
	duo, quad := fig.Series[0], fig.Series[1]
	for i := range duo.Y {
		if quad.Y[i] >= duo.Y[i] {
			t.Errorf("quad (%.1fs) not below duo (%.1fs) at point %d", quad.Y[i], duo.Y[i], i)
		}
		if i > 0 && duo.Y[i] <= duo.Y[i-1] {
			t.Errorf("duo curve not increasing at point %d", i)
		}
	}
	// Near-linear: 4x data within ~1.6x of 4x time.
	growth := duo.Y[len(duo.Y)-1] / duo.Y[0]
	if growth < 2.5 || growth > 6.4 {
		t.Errorf("duo 500MB->2GB grew %.1fx, want near-linear ~4x", growth)
	}
}

func TestFig8cGrowthExists(t *testing.T) {
	fig, err := Fig8c()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(SizesGrowth) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Y), len(SizesGrowth))
		}
	}
	if !strings.Contains(fig.Title, "SM") {
		t.Fatal("Fig 8(c) should be the SM curve")
	}
}

func TestFig9ShapesMatchPaper(t *testing.T) {
	figs, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("Fig 9 has %d sub-figures, want 3", len(figs))
	}
	hostOnly, tradSD, nopart := figs[0].Series[0], figs[1].Series[0], figs[2].Series[0]
	// Host-only and no-partition rise steeply with size.
	if last := hostOnly.Y[len(hostOnly.Y)-1]; last < 13 {
		t.Errorf("host-only speedup at 1.25GB = %.1f, want >= 13 (paper ~17.4)", last)
	}
	if last := nopart.Y[len(nopart.Y)-1]; last < 5 {
		t.Errorf("no-partition speedup at 1.25GB = %.1f, want >= 5 (paper ~6.8)", last)
	}
	// Trad-SD stays ~2 flat.
	for i, y := range tradSD.Y {
		if y < 1.5 || y > 2.6 {
			t.Errorf("trad-SD speedup point %d = %.2f, want ~2", i, y)
		}
	}
	// Below threshold (500MB) everything is mild.
	if hostOnly.Y[0] > 2.5 || nopart.Y[0] > 1.8 {
		t.Errorf("speedups below threshold too large: host=%.2f nopart=%.2f",
			hostOnly.Y[0], nopart.Y[0])
	}
}

func TestFig10NoBlowup(t *testing.T) {
	figs, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		for _, s := range fig.Series {
			for i, y := range s.Y {
				if y < 0.8 || y > 3.5 {
					t.Errorf("%s point %d = %.2f, MM/SM should stay ~1.5-2.5 (no blowup)",
						fig.Title, i, y)
				}
			}
		}
	}
}

func TestClaimsAllPass(t *testing.T) {
	claims, err := Claims()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 6 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if strings.HasPrefix(c, "[FAIL]") {
			t.Errorf("claim failed: %s", c)
		}
	}
}
