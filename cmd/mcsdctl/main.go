// Command mcsdctl is the host-side control tool for McSD storage nodes:
// it mounts a node's export, stages data files, and invokes the preloaded
// data-intensive modules through the smartFAM mechanism — the command-line
// face of the core.Runtime programming framework.
//
// Usage:
//
//	mcsdctl -addr 127.0.0.1:9000 status
//	mcsdctl -addr 127.0.0.1:9000 journal
//	mcsdctl -addr 127.0.0.1:9000 fam
//	mcsdctl -addr 127.0.0.1:9000 log wordcount
//	mcsdctl -addr 127.0.0.1:9000 modules
//	mcsdctl -addr 127.0.0.1:9000 put corpus.txt data/corpus.txt
//	mcsdctl -addr 127.0.0.1:9000 wordcount -file data/corpus.txt -partition 64M -top 10
//	mcsdctl -sds 10.0.0.1:9000,10.0.0.2:9000 wordcount -file data/corpus.txt -fragment 64M
//	mcsdctl -sds 10.0.0.1:9000,10.0.0.2:9000 scrub -r 2 -rate 32M
//	mcsdctl -sds 10.0.0.1:9000,10.0.0.2:9000 heal -object corpus.00003.frag -r 2
//	mcsdctl -addr 127.0.0.1:9000 stringmatch -file data/enc.txt -keys data/keys.txt
//	mcsdctl -addr 127.0.0.1:9000 dbselect -file data/sales.csv -group-by region -min-price 100
//	mcsdctl -addr 127.0.0.1:9000 kmeans -file data/points.bin -dim 2 -k 4 -partition 16M
//	mcsdctl -addr 127.0.0.1:9000 matmul -n 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
	"mcsd/internal/nfs"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
	"mcsd/internal/units"
)

// Exit codes, so scripts driving mcsdctl can tell an unreachable daemon
// from a module that ran and failed from node backpressure without
// parsing error text.
const (
	exitFailure     = 1 // usage errors and everything unclassified
	exitUnreachable = 2 // the SD node's export could not be reached
	exitModule      = 3 // the module ran on the node and reported failure
	exitQueueFull   = 4 // the node's scheduler shed the request (retryable)
)

// errUnreachable marks failures to reach the SD node's export at all —
// connection refused, ping timeout — as distinct from errors the node
// itself reported.
var errUnreachable = errors.New("daemon unreachable")

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	code := exitCode(err)
	fmt.Fprint(os.Stderr, stderrLine(err, code))
	os.Exit(code)
}

// stderrLine renders the error the way scripts see it: the classified
// codes (2/3/4) always carry their code and meaning, so the distinction
// is visible in logs even where the exit status itself was swallowed by
// a pipeline.
func stderrLine(err error, code int) string {
	if label := exitLabel(code); label != "" {
		return fmt.Sprintf("mcsdctl: %v (exit %d: %s)\n", err, code, label)
	}
	return fmt.Sprintf("mcsdctl: %v\n", err)
}

// exitLabel names the classified exit codes; unclassified failures (1)
// have no label.
func exitLabel(code int) string {
	switch code {
	case exitUnreachable:
		return "node unreachable"
	case exitModule:
		return "module failed on the node"
	case exitQueueFull:
		return "node busy, retry later"
	}
	return ""
}

// exitCode classifies err. Queue-full wins over the module-error check:
// the rejection crosses the wire as an error record, but it means "try
// again later", not "the module is broken".
func exitCode(err error) int {
	var merr *smartfam.ModuleError
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		return exitQueueFull
	case errors.As(err, &merr):
		return exitModule
	case errors.Is(err, errUnreachable), errors.Is(err, core.ErrNoExecutor):
		return exitUnreachable
	}
	return exitFailure
}

func run(args []string) error {
	global := flag.NewFlagSet("mcsdctl", flag.ContinueOnError)
	addr := global.String("addr", "127.0.0.1:9000", "address of the SD node's export")
	sds := global.String("sds", "", "comma-separated exports of a multi-SD fleet (wordcount only); overrides -addr")
	timeout := global.Duration("timeout", 10*time.Minute, "overall invocation timeout")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: mcsdctl [-addr host:port | -sds a:p,b:p] <status|queue|journal|fam|log|modules|put|wordcount|stringmatch|matmul|dbselect|kmeans|scrub|heal> ...")
	}

	if *sds != "" {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		addrs := strings.Split(*sds, ",")
		switch rest[0] {
		case "wordcount":
			return fleetWordcount(ctx, addrs, rest[1:])
		case "scrub":
			return fleetScrub(ctx, addrs, rest[1:])
		case "heal":
			return fleetHeal(ctx, addrs, rest[1:])
		}
		return fmt.Errorf("-sds drives the fleet path, which supports wordcount, scrub, and heal (got %q)", rest[0])
	}

	client, rt, err := attach(*addr)
	if err != nil {
		return err
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd, cmdArgs := rest[0], rest[1:]; cmd {
	case "modules":
		return listModules(client)
	case "status":
		return status(client)
	case "queue":
		return queueStatus(client)
	case "journal":
		return journalStatus(client)
	case "fam":
		return famStatus(client)
	case "log":
		return moduleLog(client, os.Stdout, cmdArgs)
	case "put":
		return put(client, cmdArgs)
	case "wordcount":
		return wordcount(ctx, rt, cmdArgs)
	case "stringmatch":
		return stringmatch(ctx, rt, cmdArgs)
	case "matmul":
		return matmul(ctx, rt, cmdArgs)
	case "dbselect":
		return dbselect(ctx, rt, cmdArgs)
	case "kmeans":
		return kmeans(ctx, rt, cmdArgs)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// mount dials one SD node's export.
func mount(addr string) (*nfs.Client, error) {
	client, err := nfs.Dial(addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errUnreachable, addr, err)
	}
	return client, nil
}

// attach mounts addr's export and attaches it to a fresh runtime. The
// runtime gets the client itself, not a caching wrapper: the only file it
// reads is a module log that grows on every call, and a wrapper that hides
// the client's watch capability would put every invocation on the polling
// path.
func attach(addr string) (*nfs.Client, *core.Runtime, error) {
	client, err := mount(addr)
	if err != nil {
		return nil, nil, err
	}
	rt := core.New()
	rt.AttachSD(addr, client)
	return client, rt, nil
}

func listModules(client *nfs.Client) error {
	names, err := client.List()
	if err != nil {
		return err
	}
	found := 0
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".log" {
			fmt.Println(n[:len(n)-4])
			found++
		}
	}
	if found == 0 {
		fmt.Println("(no modules preloaded)")
	}
	return nil
}

// status reports node liveness and the preloaded modules — the operator's
// first stop when an offload hangs.
func status(client *nfs.Client) error {
	if err := client.Ping(); err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	fmt.Println("export:    reachable")
	if ts, ok := smartfam.ReadHeartbeat(client); ok {
		age := time.Since(ts).Round(time.Millisecond)
		state := "LIVE"
		if age > 5*time.Second {
			state = "STALE"
		}
		fmt.Printf("daemon:    %s (heartbeat %v old)\n", state, age)
	} else {
		fmt.Println("daemon:    no heartbeat file (old daemon or not started)")
	}
	names, err := client.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if module, ok := smartfam.ModuleFromLog(n); ok {
			size, _, id, err := client.StatGen(n)
			if err != nil {
				continue
			}
			fmt.Printf("module:    %-14s log %s, identity %016x\n",
				module, units.FormatBytes(size), id)
		}
	}
	return nil
}

// queueStatus prints the scheduler status the daemon publishes on the
// share: queue depth, memory reservations against the budget, lifetime
// counters, and per-tenant fair-queuing state.
func queueStatus(client *nfs.Client) error {
	if err := client.Ping(); err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	data, err := smartfam.ReadFrom(client, smartfam.QueueStatusName, 0)
	if err != nil || len(data) == 0 {
		return fmt.Errorf("no queue status on the share (scheduler disabled, or daemon not started)")
	}
	st, err := sched.UnmarshalStatus(data)
	if err != nil {
		return fmt.Errorf("queue status unreadable: %w", err)
	}
	fmt.Print(st.Format())
	return nil
}

// journalStatus prints the daemon's crash-recovery counters — requests
// replayed after a restart, duplicates answered from the response cache,
// corrupt log records skipped, replies dropped after exhausting retries —
// published under the same status snapshot the queue verb reads.
func journalStatus(client *nfs.Client) error {
	if err := client.Ping(); err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	data, err := smartfam.ReadFrom(client, smartfam.QueueStatusName, 0)
	if err != nil || len(data) == 0 {
		return fmt.Errorf("no status snapshot on the share (journal disabled, or daemon not started)")
	}
	st, err := sched.UnmarshalStatus(data)
	if err != nil {
		return fmt.Errorf("status snapshot unreadable: %w", err)
	}
	if len(st.Extra) == 0 {
		return fmt.Errorf("status snapshot has no journal counters (old daemon?)")
	}
	// The snapshot carries the daemon's registry whole, so a counter
	// that never moved is simply absent: it reads as zero.
	show := func(label, key string) {
		fmt.Printf("%-11s%d\n", label+":", st.Extra[key])
	}
	show("recovered", "smartfam.daemon.recovered")
	show("deduped", "smartfam.daemon.deduped")
	show("aborted", "smartfam.daemon.aborted")
	show("corrupt", "smartfam.corrupt_records")
	show("dropped", "smartfam.respond_errors")
	return nil
}

// famStatus prints the push-mode front door's state (fam v2): whether the
// daemon's notify stream is live or the node has degraded to per-tick
// sweeps, how many push events it served, and the response group-commit
// counters — read from the same published snapshot as the queue and
// journal verbs.
func famStatus(client *nfs.Client) error {
	if err := client.Ping(); err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	data, err := smartfam.ReadFrom(client, smartfam.QueueStatusName, 0)
	if err != nil || len(data) == 0 {
		return fmt.Errorf("no status snapshot on the share (daemon not started?)")
	}
	st, err := sched.UnmarshalStatus(data)
	if err != nil {
		return fmt.Errorf("status snapshot unreadable: %w", err)
	}
	if len(st.Extra) == 0 {
		return fmt.Errorf("status snapshot has no fam counters (old daemon?)")
	}
	mode := "degraded (no push stream: the daemon sweeps every log each tick)"
	if st.Extra["smartfam.fam.push_active"] == 1 {
		mode = "push (server-push notify stream live)"
	}
	fmt.Printf("notify:      %s\n", mode)
	fmt.Printf("push events: %d\n", st.Extra["smartfam.fam.push_events"])
	fmt.Printf("degraded:    %d transition(s) to per-tick sweeps\n", st.Extra["smartfam.fam.degraded"])
	flushes := st.Extra["smartfam.fam.resp_batch_flushes"]
	records := st.Extra["smartfam.fam.resp_batch_records"]
	if flushes > 0 {
		fmt.Printf("group commit: %d flushes carrying %d responses (avg %.1f/flush)\n",
			flushes, records, float64(records)/float64(flushes))
	} else {
		fmt.Println("group commit: idle (no batched responses yet)")
	}
	return nil
}

// logPreview caps how much of each payload the log verb quotes.
const logPreview = 80

// moduleLog prints a module's log as the share holds it — payloads travel
// raw there, so this is its readable form: one line per record with kind,
// correlation ID, status, payload length and a quoted preview of the
// payload's first logPreview bytes, then the record count, the corrupt
// lines skipped and the bytes of an unterminated tail.
func moduleLog(fsys smartfam.FS, w io.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: log <module>")
	}
	module := args[0]
	data, err := smartfam.ReadFrom(fsys, smartfam.LogName(module), 0)
	if errors.Is(err, smartfam.ErrNotExist) {
		return fmt.Errorf("%w: %q", smartfam.ErrUnknownModule, module)
	}
	if err != nil {
		return err
	}
	recs, consumed, corrupt, err := smartfam.ParseRecords(data)
	for _, r := range recs {
		status := r.Status
		if status == "" {
			status = "-"
		}
		preview, more := r.Payload, ""
		if len(preview) > logPreview {
			preview, more = preview[:logPreview], "..."
		}
		fmt.Fprintf(w, "%s %s %-5s %8d B %q%s\n", r.Kind, r.ID, status, len(r.Payload), preview, more)
	}
	fmt.Fprintf(w, "%s: %d records, %d corrupt lines, %d B unterminated tail\n",
		smartfam.LogName(module), len(recs), corrupt, len(data)-consumed)
	return err
}

func put(client *nfs.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: put <local-file> <remote-path>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	if err := client.WriteFile(args[1], data); err != nil {
		return err
	}
	fmt.Printf("staged %s -> %s (%s)\n", args[0], args[1], units.FormatBytes(int64(len(data))))
	return nil
}

func wordcount(ctx context.Context, rt *core.Runtime, args []string) error {
	fs := flag.NewFlagSet("wordcount", flag.ContinueOnError)
	file := fs.String("file", "", "data file on the SD node")
	partFlag := fs.String("partition", "", "partition size (e.g. 600M); empty = native")
	top := fs.Int("top", 20, "rows of the frequency table to print")
	workers := fs.Int("workers", 0, "worker override (0 = node default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("wordcount: -file is required")
	}
	params := core.WordCountParams{DataFile: *file, TopN: *top, Workers: *workers}
	if *partFlag != "" {
		n, err := units.ParseBytes(*partFlag)
		if err != nil {
			return err
		}
		params.PartitionBytes = n
	}
	res, err := rt.Invoke(ctx, core.ModuleWordCount, params)
	if err != nil {
		return err
	}
	var out core.WordCountOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		return err
	}
	fmt.Printf("total words: %d  unique: %d  fragments: %d  module time: %dms  (offloaded to %s)\n",
		out.TotalWords, out.UniqueWords, out.Fragments, out.ElapsedMs, res.SD)
	if out.Fragments > 1 {
		fmt.Printf("fragment keys: %d  shuffle: %dms  merge: %dms\n",
			out.FragmentKeys, out.ShuffleMs, out.MergeMs)
	}
	for _, wf := range out.Top {
		fmt.Printf("%8d  %s\n", wf.Count, wf.Word)
	}
	return nil
}

// fleetWordcount scatters one word count across several SD nodes through
// the fleet coordinator: HRW placement, per-node windows, straggler
// re-execution, and a host-side merge that is byte-identical to a
// single-node run.
func fleetWordcount(ctx context.Context, addrs []string, args []string) error {
	fs := flag.NewFlagSet("wordcount", flag.ContinueOnError)
	file := fs.String("file", "", "data file reachable from every SD node")
	fragFlag := fs.String("fragment", "", "placement range size (e.g. 64M); empty = 4 ranges per node")
	partFlag := fs.String("partition", "", "node-side partition size within a fragment; empty = native")
	top := fs.Int("top", 20, "rows of the frequency table to print")
	workers := fs.Int("workers", 0, "per-node worker override (0 = node default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("wordcount: -file is required")
	}

	nodes := make([]fleet.Node, 0, len(addrs))
	var total int64
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		client, err := mount(a)
		if err != nil {
			return err
		}
		defer client.Close()
		if total == 0 {
			if total, _, err = client.Stat(*file); err != nil {
				return fmt.Errorf("stat %s on %s: %w", *file, a, err)
			}
		}
		nodes = append(nodes, fleet.Node{Name: a, Session: smartfam.NewClient(client, 0)})
	}
	if len(nodes) == 0 {
		return fmt.Errorf("-sds lists no nodes")
	}

	job := fleet.WordCountJob{DataFile: *file, TotalBytes: total, Workers: *workers, TopN: *top}
	if *fragFlag != "" {
		n, err := units.ParseBytes(*fragFlag)
		if err != nil {
			return err
		}
		job.FragmentBytes = n
	} else {
		per := int64(4 * len(nodes))
		job.FragmentBytes = (total + per - 1) / per
	}
	if *partFlag != "" {
		n, err := units.ParseBytes(*partFlag)
		if err != nil {
			return err
		}
		job.PartitionBytes = n
	}

	coord := fleet.NewCoordinator(nodes, fleet.Config{AttemptTimeout: 10 * time.Minute})
	res, err := coord.WordCount(ctx, job)
	if err != nil {
		return err
	}
	out := res.Output
	fmt.Printf("total words: %d  unique: %d  bundles: %d  (scattered over %d nodes)\n",
		out.TotalWords, out.UniqueWords, len(res.Fragments), len(nodes))
	for _, n := range nodes {
		fmt.Printf("node %-22s %d bundles\n", n.Name, res.Stats.PerNode[n.Name])
	}
	if res.Stats.Speculations+res.Stats.NodeFailures+res.Stats.QueueSteals > 0 {
		fmt.Printf("speculated: %d  re-placed: %d  stolen: %d  node failures: %d\n",
			res.Stats.Speculations, res.Stats.MovedFragments, res.Stats.QueueSteals, res.Stats.NodeFailures)
	}
	for _, wf := range out.Top {
		fmt.Printf("%8d  %s\n", wf.Count, wf.Word)
	}
	return nil
}

// dialFleetShares mounts one export per fleet address and returns the
// node->share map the replicated store places over. Node names are the
// addresses themselves, matching the fleet coordinator's convention.
func dialFleetShares(addrs []string) (map[string]smartfam.FS, func(), error) {
	shares := make(map[string]smartfam.FS)
	var clients []*nfs.Client
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		client, err := mount(a)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, client)
		shares[a] = client
	}
	if len(shares) == 0 {
		closeAll()
		return nil, nil, fmt.Errorf("-sds lists no nodes")
	}
	return shares, closeAll, nil
}

// fleetScrub runs one background-integrity pass over the fleet's replicated
// objects: every copy is CRC-verified (server-side chunk checksums where the
// export supports them), corrupt copies are rewritten from an intact
// replica, and missing copies are re-created — at a bounded byte rate so a
// scrub cannot starve foreground jobs.
func fleetScrub(ctx context.Context, addrs []string, args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	repl := fs.Int("r", 2, "replication factor the objects were written with")
	rateFlag := fs.String("rate", "32M", "scrub I/O rate cap per second (e.g. 32M); \"0\" unpaced")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rate, err := units.ParseBytes(*rateFlag)
	if err != nil {
		return fmt.Errorf("-rate: %w", err)
	}
	shares, closeAll, err := dialFleetShares(addrs)
	if err != nil {
		return err
	}
	defer closeAll()
	store := fleet.NewStore(shares, *repl, nil)
	rep, err := store.Scrub(ctx, fleet.ScrubConfig{RateBytesPerSec: rate})
	if err != nil {
		return err
	}
	fmt.Printf("scrubbed %d objects across %d nodes: %s scanned in %d files\n",
		rep.Objects, len(shares), units.FormatBytes(rep.BytesScanned), rep.FilesScanned)
	fmt.Printf("corrupt replicas: %d  repaired: %d  re-replicated: %d  orphans: %d  corrupt log records: %d\n",
		rep.CorruptReplicas, rep.RepairedReplicas, rep.ReReplicated, rep.Orphans, rep.CorruptLogRecords)
	for _, n := range rep.UnreachableNodes {
		fmt.Printf("unreachable: %s\n", n)
	}
	for _, e := range rep.Errors {
		fmt.Printf("unrestored: %s\n", e)
	}
	if len(rep.Errors) > 0 {
		return fmt.Errorf("scrub could not restore %d objects", len(rep.Errors))
	}
	return nil
}

// fleetHeal repairs a single named object on demand — the operator's
// targeted version of a scrub pass, for when a read already reported the
// damage.
func fleetHeal(ctx context.Context, addrs []string, args []string) error {
	fs := flag.NewFlagSet("heal", flag.ContinueOnError)
	object := fs.String("object", "", "replicated object to repair (e.g. corpus.00003.frag)")
	repl := fs.Int("r", 2, "replication factor the object was written with")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *object == "" {
		return fmt.Errorf("heal: -object is required")
	}
	shares, closeAll, err := dialFleetShares(addrs)
	if err != nil {
		return err
	}
	defer closeAll()
	store := fleet.NewStore(shares, *repl, nil)
	res, err := store.Repair(ctx, *object)
	if err != nil {
		return err
	}
	fmt.Printf("healed %s: repaired %d corrupt, re-replicated %d missing (holders: %s)\n",
		*object, res.RepairedCorrupt, res.ReReplicated, strings.Join(store.Replicas(*object), ","))
	for _, n := range res.Unreachable {
		fmt.Printf("unreachable: %s\n", n)
	}
	return nil
}

func stringmatch(ctx context.Context, rt *core.Runtime, args []string) error {
	fs := flag.NewFlagSet("stringmatch", flag.ContinueOnError)
	file := fs.String("file", "", "encrypt file on the SD node")
	keys := fs.String("keys", "", "keys file on the SD node")
	partFlag := fs.String("partition", "", "partition size; empty = native")
	sample := fs.Int("sample", 5, "matching lines to print verbatim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" || *keys == "" {
		return fmt.Errorf("stringmatch: -file and -keys are required")
	}
	params := core.StringMatchParams{DataFile: *file, KeysFile: *keys, SampleLines: *sample}
	if *partFlag != "" {
		n, err := units.ParseBytes(*partFlag)
		if err != nil {
			return err
		}
		params.PartitionBytes = n
	}
	res, err := rt.Invoke(ctx, core.ModuleStringMatch, params)
	if err != nil {
		return err
	}
	var out core.StringMatchOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		return err
	}
	fmt.Printf("total hits: %d across %d keys  fragments: %d  module time: %dms\n",
		out.TotalHits, len(out.HitsPerKey), out.Fragments, out.ElapsedMs)
	for k, n := range out.HitsPerKey {
		fmt.Printf("%8d  %s\n", n, k)
	}
	for _, line := range out.Sample {
		fmt.Printf("  | %s\n", line)
	}
	return nil
}

func dbselect(ctx context.Context, rt *core.Runtime, args []string) error {
	fs := flag.NewFlagSet("dbselect", flag.ContinueOnError)
	file := fs.String("file", "", "sales CSV on the SD node")
	groupBy := fs.String("group-by", "region", "region | product")
	minPrice := fs.Float64("min-price", 0, "price filter")
	partFlag := fs.String("partition", "", "partition size; empty = native")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("dbselect: -file is required")
	}
	params := core.DBSelectParams{DataFile: *file, GroupBy: *groupBy, MinPrice: *minPrice}
	if *partFlag != "" {
		n, err := units.ParseBytes(*partFlag)
		if err != nil {
			return err
		}
		params.PartitionBytes = n
	}
	res, err := rt.Invoke(ctx, core.ModuleDBSelect, params)
	if err != nil {
		return err
	}
	var out core.DBSelectOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		return err
	}
	fmt.Printf("%d groups  fragments: %d  module time: %dms\n",
		out.Groups, out.Fragments, out.ElapsedMs)
	for g, v := range out.Revenue {
		fmt.Printf("%14.2f  %s\n", v, g)
	}
	return nil
}

func kmeans(ctx context.Context, rt *core.Runtime, args []string) error {
	fs := flag.NewFlagSet("kmeans", flag.ContinueOnError)
	file := fs.String("file", "", "encoded points file on the SD node (datagen -kind points)")
	dim := fs.Int("dim", 2, "point dimensionality")
	k := fs.Int("k", 4, "clusters")
	rounds := fs.Int("rounds", 50, "max rounds")
	partFlag := fs.String("partition", "", "per-round fragment size; empty = native")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("kmeans: -file is required")
	}
	params := core.KMeansParams{DataFile: *file, Dim: *dim, K: *k, MaxRounds: *rounds}
	if *partFlag != "" {
		n, err := units.ParseBytes(*partFlag)
		if err != nil {
			return err
		}
		params.PartitionBytes = n
	}
	out, _, err := rt.KMeans(ctx, params)
	if err != nil {
		return err
	}
	fmt.Printf("k-means: %d rounds, converged=%v (last shift %.3g), module time %dms\n",
		out.Rounds, out.Converged, out.LastShift, out.ElapsedMs)
	for i, c := range out.Centroids {
		fmt.Printf("centroid %d: %.3f\n", i, c)
	}
	return nil
}

func matmul(ctx context.Context, rt *core.Runtime, args []string) error {
	fs := flag.NewFlagSet("matmul", flag.ContinueOnError)
	n := fs.Int("n", 256, "matrix dimension")
	seedA := fs.Int64("seed-a", 1, "seed of matrix A")
	seedB := fs.Int64("seed-b", 2, "seed of matrix B")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := rt.Invoke(ctx, core.ModuleMatMul, core.MatMulParams{N: *n, SeedA: *seedA, SeedB: *seedB})
	if err != nil {
		return err
	}
	var out core.MatMulOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		return err
	}
	fmt.Printf("matmul %dx%d: trace=%.6f frob^2=%.6f  module time: %dms\n",
		out.N, out.N, out.Trace, out.FrobSq, out.ElapsedMs)
	return nil
}
