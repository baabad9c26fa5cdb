package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runCompare loads the bounds and the two result files and prints the
// comparison; the exit code is 0 only when b is no worse than a.
func runCompare(w io.Writer, specPath, aPath, bPath string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	a, err := readResults(aPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := readResults(bPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if bad := compare(w, spec, a.Results, b.Results); bad > 0 {
		fmt.Fprintf(w, "%d regressions or missing values\n", bad)
		return 1
	}
	return 0
}

// compare prints one row per (workload, end-to-end metric) with both
// values and the ratio b/a — a is the base — and returns how many rows
// fail: b worse than a by more than the metric's bound, a value missing
// on either side or not positive, or a workload whose failed share of
// attempted operations went up. Only untraced results are compared; the
// per-layer metrics carry no bound.
func compare(w io.Writer, spec *benchmarkSpec, a, b []*result) int {
	find := func(rs []*result, workload string) *result {
		for _, r := range rs {
			if r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := find(a, wl.Name), find(b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t(all)\t-\t-\t-\t-\tMISSING\n", wl.Name)
			bad++
			continue
		}
		for _, decl := range spec.EndToEnd {
			va, oka := ra.Metrics[decl.Name]
			vb, okb := rb.Metrics[decl.Name]
			if !oka || !okb || va.Value <= 0 || vb.Value <= 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tMISSING\n", wl.Name, decl.Name)
				bad++
				continue
			}
			r := vb.Value / va.Value
			verdict := "ok"
			if worse := decl.Better == "higher" && r < 1-decl.Bound || decl.Better != "higher" && r > 1+decl.Bound; worse {
				verdict = "WORSE"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.4f\t%s %.0f%%\t%s\n",
				wl.Name, decl.Name, va.Value, va.Unit, vb.Value, vb.Unit, r, decl.Better, 100*decl.Bound, verdict)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "ok"
		if fb > fa {
			verdict = "WORSE"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_ratio\t%.6f\t%.6f\t-\tany increase\t%s\n", wl.Name, fa, fb, verdict)
	}
	tw.Flush()
	return bad
}
