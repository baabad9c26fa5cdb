// Stringmatch-cluster: out-of-core string match sharded across two SD
// nodes.
//
// The demo shows the two McSD properties the paper's §IV-B and §VI care
// about:
//
//  1. the memory wall — each SD node is given a deliberately tiny memory
//     budget, so the native (no-partition) run fails with the same
//     out-of-memory error that kills original Phoenix, while the
//     partitioned run streams through fragment by fragment;
//  2. multi-SD parallelism — the encrypt file is split across two SD
//     nodes and both shards are searched concurrently, each on the node
//     that holds it, through fleet.Coordinator.Execute.
//
// Run with:
//
//	go run ./examples/stringmatch-cluster
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
	"mcsd/internal/memsim"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

const shardSize = 3 << 20 // per-SD encrypt shard

func main() {
	if err := run(); err != nil {
		log.Fatalf("stringmatch-cluster: %v", err)
	}
}

// startSD builds one memory-constrained smart-storage node and returns its
// share and data dir.
func startSD(ctx context.Context, name string) (smartfam.FS, string, error) {
	dir, err := os.MkdirTemp("", "mcsd-"+name+"-*")
	if err != nil {
		return nil, "", err
	}
	share := smartfam.DirFS(dir)
	registry := smartfam.NewRegistry(share)
	// A tiny memory budget: 4 MiB RAM, no swap. A 3 MiB shard has a
	// 6 MiB string-match footprint -> native runs must OOM.
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 4 << 20, UsableFraction: 1.0})
	mods := core.StandardModules(core.ModuleConfig{
		Store: core.DirStore(dir), Workers: 2, Memory: acct,
	})
	for _, m := range mods {
		if err := registry.Register(m); err != nil {
			return nil, "", err
		}
	}
	daemon := smartfam.NewDaemon(share, registry, smartfam.WithWorkers(2))
	go daemon.Run(ctx) //nolint:errcheck
	return share, dir, nil
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	keys := workloads.GenerateKeys(8, 99)

	rt := core.New()
	var dirs []string
	var nodes []fleet.Node
	for i, name := range []string{"sd0", "sd1"} {
		share, dir, err := startSD(ctx, name)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dirs = append(dirs, dir)

		// Stage this node's shard of the encrypt file plus the keys file.
		shard := workloads.GenerateEncryptBytes(shardSize, int64(100+i), keys, 0.05)
		if err := os.WriteFile(filepath.Join(dir, "encrypt.txt"), shard, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "keys.txt"),
			[]byte(strings.Join(keys, "\n")+"\n"), 0o644); err != nil {
			return err
		}
		rt.AttachSD(name, share)
		nodes = append(nodes, fleet.Node{Name: name, Session: smartfam.NewClient(share, 0)})
	}
	fmt.Printf("two SD nodes up, %d MiB shard each, searching for %d keys\n\n",
		shardSize>>20, len(keys))

	// --- The memory wall: native mode cannot even start.
	_, err := rt.Invoke(ctx, core.ModuleStringMatch, core.StringMatchParams{
		DataFile: "encrypt.txt", KeysFile: "keys.txt", // PartitionBytes 0 = native
	})
	var merr *smartfam.ModuleError
	if !errors.As(err, &merr) || !strings.Contains(merr.Msg, "out of memory") {
		return fmt.Errorf("expected the native run to hit the memory wall, got: %v", err)
	}
	fmt.Println("native (no partition):  OUT OF MEMORY — the original-Phoenix wall")

	// --- Partitioned + sharded: both nodes stream their shard in 512 KiB
	// fragments concurrently, each shard pinned to the node holding it.
	params, err := json.Marshal(core.StringMatchParams{
		DataFile: "encrypt.txt", KeysFile: "keys.txt", PartitionBytes: 512 << 10,
	})
	if err != nil {
		return err
	}
	var shards []fleet.Fragment
	for i, n := range nodes {
		shards = append(shards, fleet.Fragment{Index: i, Key: n.Name + "/encrypt.txt", Replicas: []string{n.Name}, Params: params})
	}
	start := time.Now()
	won, _, err := fleet.NewCoordinator(nodes, fleet.Config{}).Execute(ctx, core.ModuleStringMatch, shards)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	var outs []core.StringMatchOutput
	for _, fr := range won {
		var out core.StringMatchOutput
		if err := core.Decode(fr.Payload, &out); err != nil {
			return err
		}
		fmt.Printf("shard %d on %-4s: %5d hits in %d fragments (%dms)\n",
			fr.Index, fr.Node, out.TotalHits, out.Fragments, out.ElapsedMs)
		outs = append(outs, out)
	}
	merged := core.MergeStringMatchOutputs(outs, 0)
	total, hits := merged.HitsPerKey, merged.TotalHits
	fmt.Printf("\npartitioned + sharded:  %d total hits across both nodes in %v\n",
		hits, elapsed.Round(time.Millisecond))

	// Verify against a sequential scan of both shards together.
	var want int
	for i := range dirs {
		data, err := os.ReadFile(filepath.Join(dirs[i], "encrypt.txt"))
		if err != nil {
			return err
		}
		want += len(workloads.StringMatchSeq(data, keys))
	}
	if int64(want) != hits {
		return fmt.Errorf("verification failed: cluster found %d hits, sequential scan %d", hits, want)
	}
	fmt.Printf("verified against a sequential scan: %d hits on both paths\n", want)
	for k, n := range total {
		fmt.Printf("%8d  %s\n", n, k)
	}
	return nil
}
