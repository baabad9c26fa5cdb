// Command perfbench is the repository's one repeatable benchmark: four
// workloads over the whole host -> NFS wire -> smartFAM -> scheduler ->
// engine -> fleet stack, each run in one process against SD nodes
// assembled exactly as cmd/mcsdd assembles itself, behind the modelled
// 1 GbE + 10 ms link. BENCHMARK.json at the repository root declares the
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer metrics; README.md in this directory says what each one is
// for and which layer should move which figure.
//
//	go run ./cmd/perfbench -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1|both] [-out <file>]
//	go run ./cmd/perfbench -compare a.json b.json
//
// An untraced run (-trace 0) reports the end-to-end metrics from plain
// objects. A traced run (-trace 1) installs the benchmark's own timing
// decorators around the public interfaces it hands each layer and
// reports the per-layer metrics. Every run checks every result it gets
// back; the last line of standard output is the result as one JSON
// object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const (
	specFile = "BENCHMARK.json"
	// setups is how many times a run sets its workload up; setup_s is the
	// median, so one slow cold start does not decide it.
	setups = 5
	// workdir holds the SD nodes' export directories for the length of a
	// run. It is relative: the benchmark writes only inside its checkout.
	workdir = ".bench_build"
)

// stamp records where and how a result file was measured, so two files
// can be told comparable before their numbers are.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	Sizes      sizes   `json:"sizes"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env     stamp     `json:"env"`
	Results []*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed         = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds      = fs.Float64("seconds", 0, "measured time per run (default: run_seconds of "+specFile+")")
		traceFlag    = fs.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both: one after the other")
		out          = fs.String("out", "", "write the results (and, traced, trace-<workload>.json beside them) to this file")
		compareFlag  = fs.Bool("compare", false, "compare two result files against the bounds of "+specFile)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareFlag {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two result files")
			return 2
		}
		return runCompare(os.Stdout, specFile, fs.Arg(0), fs.Arg(1))
	}

	// The load comes from this one process; more Ps than cores would only
	// add scheduler noise to every figure.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS %d > nproc %d; refusing to measure\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = workloadNames
	}
	var modes []bool
	switch *traceFlag {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0, 1 or both, got %q\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		spec, err := loadSpec(specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: no -seconds and no run_seconds to default to: %v\n", err)
			return 2
		}
		*seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	file := resultFile{Env: stamp{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Setups: setups, Sizes: defaultSizes,
	}}
	code := 0
	for _, name := range names {
		for _, traced := range modes {
			cfg := config{
				workload: name, seed: *seed, seconds: *seconds, trace: traced,
				sizes: defaultSizes, setups: setups, workdir: workdir,
			}
			if traced && *out != "" {
				cfg.traceOut = filepath.Join(filepath.Dir(*out), "trace-"+name+".json")
			}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			file.Results = append(file.Results, res)
			report(res)
			if !res.Correct || len(res.Void) > 0 {
				code = 3
			}
		}
	}
	if len(names) > 1 {
		crossChecks(file.Results)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return code
}

// report prints every metric of a result by name with its unit on
// standard error, and the result itself as the one JSON line on standard
// output that the driver reads.
func report(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "%s (%s): %d attempted, %d failed\n", res.Workload, mode, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if res.FirstFailure != "" {
		fmt.Fprintf(os.Stderr, "  first failure: %s\n", res.FirstFailure)
	}
	for _, why := range res.Void {
		fmt.Fprintf(os.Stderr, "  VOID: %s\n", why)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct && len(res.Void) == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a result of plain numbers: %v", err))
	}
	fmt.Println(string(line))
}

// crossChecks prints, after a run of all workloads, the comparisons that
// only make sense across them: the paper's "bulk data never crosses the
// network" as wire bytes per job, pulled against offloaded, and the same
// engine's rate seen from the host and from the SD.
func crossChecks(results []*result) {
	get := func(workload string, traced bool, name string) (float64, bool) {
		for _, r := range results {
			if r.Workload == workload && r.Traced == traced {
				m, ok := r.Metrics[name]
				return m.Value, ok
			}
		}
		return 0, false
	}
	corpus := float64(defaultSizes.CorpusBytes)
	pull, ok1 := get("hostpull_wc", false, "host_wire_bytes_per_op")
	off, ok2 := get("offload_mix", false, "host_wire_bytes_per_op")
	if ok1 && ok2 {
		fmt.Fprintf(os.Stderr, "cross-check: host_wire_bytes_per_op hostpull_wc %.0f B (%.3fx corpus, want >= 1), offload_mix %.0f B (%.5f%% of corpus, want < 0.1%%)\n",
			pull, pull/corpus, off, 100*off/corpus)
	}
	hostRate, ok1 := get("hostpull_wc", true, "mapreduce.engine_mb_per_s")
	sdRate, ok2 := get("offload_mix", true, "mapreduce.engine_mb_per_s")
	if ok1 && ok2 && hostRate > 0 {
		fmt.Fprintf(os.Stderr, "cross-check: mapreduce.engine_mb_per_s host side %.1f MB/s (hostpull_wc), SD side %.1f MB/s (offload_mix), gap %+.1f%% of host side\n",
			hostRate, sdRate, 100*(sdRate-hostRate)/hostRate)
	}
}

// commit names the measured source: the git commit when the checkout is a
// repository, "unknown" in a bare source tree such as the driver's.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
