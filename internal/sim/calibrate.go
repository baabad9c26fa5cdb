package sim

import (
	"context"
	"fmt"
	"time"

	"mcsd/internal/mapreduce"
	"mcsd/internal/workloads"
)

// Calibration anchors the simulator's absolute time scale to the real
// MapReduce engine running on the current machine. The default cost models
// are calibrated to Table I-era hardware (stable across machines, used for
// figure generation); CalibrateFromEngine lets a user re-anchor them so
// simulated seconds track their own hardware.
type Calibration struct {
	// MeasuredWordCountBps is the single-core word-count rate of the real
	// engine on this machine.
	MeasuredWordCountBps float64
	// MeasuredStringMatchBps is the single-core string-match rate.
	MeasuredStringMatchBps float64
	// Scale is MeasuredWordCountBps divided by the Table I reference rate:
	// multiply any reference MapRateBps by Scale to express it in
	// this-machine seconds.
	Scale float64
}

// CalibrateFromEngine measures the real engine over sampleBytes of
// generated input (a few MB is plenty) and returns the calibration.
func CalibrateFromEngine(ctx context.Context, sampleBytes int64) (Calibration, error) {
	if sampleBytes < 1<<16 {
		sampleBytes = 1 << 16
	}
	var cal Calibration

	text := workloads.GenerateTextBytes(sampleBytes, 1)
	cfg := mapreduce.Config{Workers: 1}
	//mcsdlint:allow simdet -- calibration's whole job is measuring the real engine's wall-clock speed
	start := time.Now()
	if _, err := mapreduce.RunSequential(ctx, cfg, workloads.WordCountSpec(), text); err != nil {
		return cal, fmt.Errorf("sim: calibration word count: %w", err)
	}
	//mcsdlint:allow simdet -- calibration's whole job is measuring the real engine's wall-clock speed
	wcSec := time.Since(start).Seconds()
	if wcSec <= 0 {
		return cal, fmt.Errorf("sim: calibration measured non-positive time")
	}
	cal.MeasuredWordCountBps = float64(len(text)) / wcSec

	keys := workloads.GenerateKeys(8, 2)
	enc := workloads.GenerateEncryptBytes(sampleBytes, 3, keys, 0.05)
	//mcsdlint:allow simdet -- calibration's whole job is measuring the real engine's wall-clock speed
	start = time.Now()
	if _, err := mapreduce.RunSequential(ctx, cfg, workloads.StringMatchSpec(keys), enc); err != nil {
		return cal, fmt.Errorf("sim: calibration string match: %w", err)
	}
	//mcsdlint:allow simdet -- calibration's whole job is measuring the real engine's wall-clock speed
	smSec := time.Since(start).Seconds()
	if smSec <= 0 {
		return cal, fmt.Errorf("sim: calibration measured non-positive time")
	}
	cal.MeasuredStringMatchBps = float64(len(enc)) / smSec

	cal.Scale = cal.MeasuredWordCountBps / workloads.WordCountCost().MapRateBps
	return cal, nil
}
