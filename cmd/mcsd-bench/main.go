// Command mcsd-bench regenerates every table and figure of the paper's
// evaluation section from the performance model, printing the same rows
// and series the paper reports.
//
// Usage:
//
//	mcsd-bench            # everything
//	mcsd-bench -fig9      # just Fig. 9
//	mcsd-bench -claims    # the quantitative prose claims with PASS/FAIL
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mcsd/internal/experiments"
	"mcsd/internal/metrics"
	"mcsd/internal/sim"
	"mcsd/internal/workloads"
)

// outDir, when non-empty, receives one CSV file per emitted artifact.
var outDir string

// emitCSV writes content to <outDir>/<name>.csv when -csv is set.
func emitCSV(name, content string) error {
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, name)
	return os.WriteFile(filepath.Join(outDir, slug+".csv"), []byte(content), 0o644)
}

// emitFigure prints a figure and mirrors it to CSV.
func emitFigure(fig *metrics.Figure) error {
	if _, err := fig.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return emitCSV(fig.Title, fig.CSV())
}

func main() {
	var (
		table1 = flag.Bool("table1", false, "Table I: cluster configuration")
		fig8a  = flag.Bool("fig8a", false, "Fig. 8(a): single-application speedups")
		fig8b  = flag.Bool("fig8b", false, "Fig. 8(b): WC growth curves")
		fig8c  = flag.Bool("fig8c", false, "Fig. 8(c): SM growth curves")
		fig9   = flag.Bool("fig9", false, "Fig. 9: MM/WC pair speedups")
		fig10  = flag.Bool("fig10", false, "Fig. 10: MM/SM pair speedups")
		claims = flag.Bool("claims", false, "quantitative prose claims (PASS/FAIL)")
		ext    = flag.Bool("ext", false, "extension studies: multi-SD, interconnect, SMB sweep")
		scale  = flag.Bool("scale", false, "measured scale model: real engine + throttled TCP (slow; excluded from default)")
		calib  = flag.Bool("calibrate", false, "measure the real engine on this machine and print the model scale factor")
		csvDir = flag.String("csv", "", "also write each table/figure as CSV into this directory")
	)
	flag.Parse()
	outDir = *csvDir
	all := !(*table1 || *fig8a || *fig8b || *fig8c || *fig9 || *fig10 || *claims || *ext || *scale || *calib)

	if err := run(all, *table1, *fig8a, *fig8b, *fig8c, *fig9, *fig10, *claims, *ext); err != nil {
		log.Fatalf("mcsd-bench: %v", err)
	}
	if *scale {
		if err := runScale(); err != nil {
			log.Fatalf("mcsd-bench: scale model: %v", err)
		}
	}
	if *calib {
		if err := runCalibrate(); err != nil {
			log.Fatalf("mcsd-bench: calibration: %v", err)
		}
	}
}

// runCalibrate anchors the simulator's absolute scale to this machine.
func runCalibrate() error {
	cal, err := sim.CalibrateFromEngine(context.Background(), 8<<20)
	if err != nil {
		return err
	}
	fmt.Println("Engine calibration (this machine, single worker):")
	fmt.Printf("  word count:   %6.1f MB/s  (Table I reference core: %.1f MB/s)\n",
		cal.MeasuredWordCountBps/1e6, workloads.WordCountCost().MapRateBps/1e6)
	fmt.Printf("  string match: %6.1f MB/s  (Table I reference core: %.1f MB/s)\n",
		cal.MeasuredStringMatchBps/1e6, workloads.StringMatchCost().MapRateBps/1e6)
	fmt.Printf("  scale factor: %.2fx — this machine's core vs a 2.0 GHz Core2 core\n", cal.Scale)
	fmt.Println("  (multiply any reference MapRateBps by the factor to model this machine)")
	return nil
}

// runScale executes the measured scale model on the real engine.
func runScale() error {
	fmt.Println("Running the measured scale model (real engine over a throttled link)...")
	res, err := experiments.RunScaleModel(context.Background(), experiments.DefaultScaleModelConfig())
	if err != nil {
		return err
	}
	if err := emitFigure(res.Elapsed); err != nil {
		return err
	}
	return emitFigure(res.Speedup)
}

func run(all, table1, fig8a, fig8b, fig8c, fig9, fig10, claims, ext bool) error {
	if all || table1 {
		tbl := experiments.Table1()
		if _, err := tbl.WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := emitCSV(tbl.Title, tbl.CSV()); err != nil {
			return err
		}
	}
	figFns := []struct {
		on bool
		fn func() (*metrics.Figure, error)
	}{
		{all || fig8a, experiments.Fig8a},
		{all || fig8b, experiments.Fig8b},
		{all || fig8c, experiments.Fig8c},
	}
	for _, f := range figFns {
		if !f.on {
			continue
		}
		fig, err := f.fn()
		if err != nil {
			return err
		}
		if err := emitFigure(fig); err != nil {
			return err
		}
	}
	multiFns := []struct {
		on bool
		fn func() ([]*metrics.Figure, error)
	}{
		{all || fig9, experiments.Fig9},
		{all || fig10, experiments.Fig10},
	}
	for _, f := range multiFns {
		if !f.on {
			continue
		}
		figs, err := f.fn()
		if err != nil {
			return err
		}
		for _, fig := range figs {
			if err := emitFigure(fig); err != nil {
				return err
			}
		}
	}
	if all || ext {
		for _, fn := range []func() (*metrics.Figure, error){
			experiments.FigMultiSD, experiments.FigInterconnect,
			experiments.FigSMBSweep, experiments.FigOffloadEconomics,
		} {
			fig, err := fn()
			if err != nil {
				return err
			}
			if err := emitFigure(fig); err != nil {
				return err
			}
		}
		fmt.Printf("(interconnect x axis: 0=%s 1=%s 2=%s)\n\n",
			experiments.InterconnectProfileNames[0],
			experiments.InterconnectProfileNames[1],
			experiments.InterconnectProfileNames[2])
	}
	if all || claims {
		lines, err := experiments.Claims()
		if err != nil {
			return err
		}
		fmt.Println("Quantitative claims (§V prose):")
		for _, l := range lines {
			fmt.Println("  " + l)
		}
	}
	return nil
}
