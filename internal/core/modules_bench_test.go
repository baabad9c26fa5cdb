package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// The module benchmarks time the SD node's compute path alone — store
// read, fragment scan, engine and merge — on a DirStore file, without the
// front door's round trips: 32 MiB in 4 MiB partitions with 2 workers, the
// offload_mix shape, or 4 MiB under -short.
const (
	benchPartition = 4 << 20
	benchWorkers   = 2
)

func benchInputBytes() int64 {
	if testing.Short() {
		return 4 << 20
	}
	return 32 << 20
}

// benchModule writes files into a fresh DirStore, then runs mod on params
// b.N times.
func benchModule(b *testing.B, files map[string][]byte, mod func(ModuleConfig) smartfam.Module, params any) {
	dir := b.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	m := mod(ModuleConfig{Store: DirStore(dir), Workers: benchWorkers})
	raw := mustEncode(b, params)
	ctx := context.Background()
	b.SetBytes(benchInputBytes())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.Run(ctx, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWordCountModule times three request shapes: partitioned, the
// offload_mix one; native, one fragment spread over both workers' tables;
// and emit-pairs, a fleet bundle's: every pair back, in the ~175 KiB
// partitions that fleet_wc's 8 MiB corpus in 48 placement ranges gives.
func BenchmarkWordCountModule(b *testing.B) {
	text := workloads.GenerateTextBytes(benchInputBytes(), 1)
	files := map[string][]byte{"corpus.txt": text}
	for _, bc := range []struct {
		name   string
		params WordCountParams
	}{
		{"partitioned", WordCountParams{DataFile: "corpus.txt", PartitionBytes: benchPartition, TopN: 10}},
		{"native", WordCountParams{DataFile: "corpus.txt", TopN: 10}},
		{"emit-pairs", WordCountParams{DataFile: "corpus.txt", PartitionBytes: 175 << 10, TopN: 1, EmitPairs: true}},
	} {
		b.Run(bc.name, func(b *testing.B) { benchModule(b, files, WordCountModule, bc.params) })
	}
}

func BenchmarkStringMatchModule(b *testing.B) {
	keys := workloads.GenerateKeys(8, 1)
	data := workloads.GenerateEncryptBytes(benchInputBytes(), 1, keys, 0.01)
	benchModule(b, map[string][]byte{
		"encrypt.txt": data,
		"keys.txt":    []byte(strings.Join(keys, "\n") + "\n"),
	}, StringMatchModule,
		StringMatchParams{DataFile: "encrypt.txt", KeysFile: "keys.txt", PartitionBytes: benchPartition})
}
