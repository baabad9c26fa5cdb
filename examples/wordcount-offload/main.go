// Wordcount-offload: the paper's core experiment on a real wire.
//
// Two "nodes" run in one process but talk only through TCP on a
// bandwidth-throttled loopback link modelling the testbed's Gigabit
// Ethernet: an SD node (file-service export + smartFAM daemon + preloaded
// modules, the mcsdd role) and a host. The host stages a corpus onto the
// SD node once, then counts its words two ways:
//
//  1. McSD offload — only parameters and the small result cross the wire;
//  2. host-only — the host drags every byte back over NFS and counts
//     locally, the data movement smart storage exists to avoid.
//
// Run with:
//
//	go run ./examples/wordcount-offload
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/mapreduce"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/partition"
	"mcsd/internal/smartfam"
	"mcsd/internal/units"
	"mcsd/internal/workloads"
)

const corpusSize = 8 << 20 // 8 MiB keeps the demo quick on a slow link

func main() {
	if err := run(); err != nil {
		log.Fatalf("wordcount-offload: %v", err)
	}
}

func run() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// --- SD node: export a directory and serve modules over smartFAM.
	sdDir, err := os.MkdirTemp("", "mcsd-sd-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdDir)

	share := smartfam.DirFS(sdDir)
	registry := smartfam.NewRegistry(share)
	for _, m := range core.StandardModules(core.ModuleConfig{Store: core.DirStore(sdDir), Workers: 2}) {
		if err := registry.Register(m); err != nil {
			return err
		}
	}
	daemon := smartfam.NewDaemon(share, registry, smartfam.WithWorkers(2))
	go daemon.Run(ctx) //nolint:errcheck

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	server := nfs.NewServer(sdDir)
	go server.Serve(ln) //nolint:errcheck
	defer server.Shutdown()
	fmt.Printf("SD node exporting %s on %s\n", sdDir, ln.Addr())

	// --- The wire: a 25 MB/s link (a scaled-down 1 GbE so the demo's
	// 8 MiB behaves like the paper's gigabytes).
	link := netsim.NewLink(netsim.Profile{
		Name: "demo-link", BandwidthBps: 25e6, Latency: 100 * time.Microsecond,
	})

	// --- Host: mount the export over the throttled link.
	mount, err := nfs.DialThrottled(ctx, ln.Addr().String(), 5*time.Second, link)
	if err != nil {
		return err
	}
	defer mount.Close()

	// Stage the corpus onto the SD node (one-time data placement).
	fmt.Printf("staging a %s corpus onto the SD node...\n", units.FormatBytes(corpusSize))
	corpus := workloads.GenerateTextBytes(corpusSize, 7)
	start := time.Now()
	if err := mount.WriteFile("corpus.txt", corpus); err != nil {
		return err
	}
	fmt.Printf("staged in %v\n\n", time.Since(start).Round(time.Millisecond))

	// --- Way 1: McSD offload. Parameters go out, a frequency table comes
	// back; the corpus itself never crosses the wire again.
	rt := core.New()
	rt.AttachSD("sd0", mount)
	start = time.Now()
	res, err := rt.Invoke(ctx, core.ModuleWordCount, core.WordCountParams{
		DataFile: "corpus.txt", PartitionBytes: 1 << 20, TopN: 5,
	})
	if err != nil {
		return err
	}
	offloadTime := time.Since(start)
	var out core.WordCountOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		return err
	}
	fmt.Printf("McSD offload:  %8v   (%d unique words, computed on %s)\n",
		offloadTime.Round(time.Millisecond), out.UniqueWords, res.SD)

	// --- Way 2: host-only. Every corpus byte crosses the throttled link
	// before the host can count anything.
	start = time.Now()
	reader, err := mount.OpenReader("corpus.txt")
	if err != nil {
		return err
	}
	hostRes, err := partition.Run(ctx, mapreduce.Config{Workers: 4},
		workloads.WordCountSpec(), reader,
		partition.Options{FragmentSize: 1 << 20}, workloads.WordCountMerge)
	reader.Close()
	if err != nil {
		return err
	}
	hostTime := time.Since(start)
	fmt.Printf("host-only:     %8v   (%d unique words, %s pulled across the wire)\n",
		hostTime.Round(time.Millisecond), len(hostRes.Pairs), units.FormatBytes(corpusSize))

	if len(hostRes.Pairs) != out.UniqueWords {
		return fmt.Errorf("results disagree: %d vs %d unique words", len(hostRes.Pairs), out.UniqueWords)
	}
	fmt.Printf("\nidentical results; offload avoided the bulk transfer (%.1fx faster here)\n",
		float64(hostTime)/float64(offloadTime))
	fmt.Println("top words:")
	for _, wf := range out.Top {
		fmt.Printf("%8d  %s\n", wf.Count, wf.Word)
	}
	return nil
}
