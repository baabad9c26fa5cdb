package experiments

import (
	"context"
	"testing"
	"time"
)

func TestScaleModelMeasuredShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scale model moves real megabytes over a throttled link")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	// Small and fast for CI: two sizes, modest link.
	cfg := ScaleModelConfig{
		Sizes:          []int64{1 << 20, 4 << 20},
		LinkBps:        20e6,
		PartitionBytes: 512 << 10,
		Workers:        2,
	}
	res, err := RunScaleModel(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, host := res.Elapsed.Series[0], res.Elapsed.Series[1]
	if len(off.Y) != 2 || len(host.Y) != 2 {
		t.Fatalf("expected 2 measured points per series, got %d/%d", len(off.Y), len(host.Y))
	}
	if raceEnabled {
		t.Log("race detector on: the timing shape is not checked")
		return
	}
	// The measured shape: host-only pays the wire for every byte, so it
	// must be slower at the larger size, and its disadvantage must grow
	// with size (the data-movement effect the paper is about).
	if host.Y[1] <= off.Y[1] {
		t.Errorf("host-only (%.2fs) not slower than offload (%.2fs) at 4 MB",
			host.Y[1], off.Y[1])
	}
	sp := res.Speedup.Series[0]
	if sp.Y[1] <= 1.0 {
		t.Errorf("speedup at 4 MB = %.2f, want > 1", sp.Y[1])
	}
}
