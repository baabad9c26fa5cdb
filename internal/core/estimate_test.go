package core

import (
	"bytes"
	"io"
	"testing"

	"mcsd/internal/memsim"
	"mcsd/internal/partition"
	"mcsd/internal/workloads"
)

// sizeStore is a DataStore of fixed sizes — estimation never opens files.
type sizeStore map[string]int64

func (s sizeStore) Open(name string) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(nil)), nil
}

func (s sizeStore) Size(name string) (int64, error) {
	n, ok := s[name]
	if !ok {
		return 0, io.ErrUnexpectedEOF
	}
	return n, nil
}

func TestFootprintEstimatorSizesModules(t *testing.T) {
	store := sizeStore{"big.txt": 1 << 30, "small.txt": 4 << 10, "sales.csv": 8 << 20}
	est := NewFootprintEstimator(store, nil)

	// Native word count charges the whole input at the workload's factor.
	in, f := est(ModuleWordCount, mustEncode(t, WordCountParams{DataFile: "big.txt"}))
	if in != 1<<30 || f != workloads.WordCountFootprint {
		t.Fatalf("wordcount native = (%d, %v), want whole input at %v×", in, f, workloads.WordCountFootprint)
	}

	// A partitioned run holds what partition.Run's fragment pool may: as
	// many fragments as fit half of usable RAM by footprint, at least one.
	mem := memsim.DefaultConfig()
	budget := int64(float64(mem.Usable()) / (2 * workloads.WordCountFootprint))
	in, _ = est(ModuleWordCount, mustEncode(t, WordCountParams{DataFile: "big.txt", PartitionBytes: 64 << 20}))
	if in != budget {
		t.Fatalf("wordcount partitioned = %d, want the fragment budget %d", in, budget)
	}
	in, _ = est(ModuleWordCount, mustEncode(t, WordCountParams{DataFile: "big.txt", PartitionBytes: 512 << 20}))
	if in != 512<<20 {
		t.Fatalf("wordcount partitioned past the budget = %d, want one fragment", in)
	}

	// Inputs smaller than two fragments charge their true size.
	in, _ = est(ModuleStringMatch, mustEncode(t, StringMatchParams{DataFile: "small.txt", PartitionBytes: 64 << 20}))
	if in != 4<<10 {
		t.Fatalf("stringmatch small = %d, want true size", in)
	}
	if _, f = est(ModuleStringMatch, mustEncode(t, StringMatchParams{DataFile: "small.txt"})); f != workloads.StringMatchFootprint {
		t.Fatalf("stringmatch factor = %v, want %v", f, workloads.StringMatchFootprint)
	}

	// AutoPartition resolves through the memory model like the module will:
	// an auto-sized fragment fills the budget, so the pool holds one.
	acct := memsim.NewAccountant(memsim.DefaultConfig())
	est = NewFootprintEstimator(store, acct)
	frag := partition.AutoFragmentSize(acct.Config(), workloads.WordCountFootprint)
	in, _ = est(ModuleWordCount, mustEncode(t, WordCountParams{DataFile: "big.txt", PartitionBytes: AutoPartition}))
	if want := min(int64(1<<30), frag); in != want {
		t.Fatalf("auto-partitioned charge = %d, want %d", in, want)
	}

	// matmul is priced from its matrix dimensions, not a file.
	in, f = est(ModuleMatMul, mustEncode(t, MatMulParams{N: 100}))
	if in != 100*100*8*3 || f != 1.0 {
		t.Fatalf("matmul = (%d, %v), want three dense matrices", in, f)
	}
}

func TestFootprintEstimatorFailsOpen(t *testing.T) {
	est := NewFootprintEstimator(sizeStore{}, nil)
	cases := []struct {
		name   string
		module string
		params []byte
	}{
		{"unknown module", "ghost", []byte(`{}`)},
		{"malformed payload", ModuleWordCount, []byte(`{"data_file":3}`)},
		{"missing file", ModuleWordCount, mustEncode(t, WordCountParams{DataFile: "nope.txt"})},
	}
	for _, tc := range cases {
		if in, _ := est(tc.module, tc.params); in != 0 {
			t.Fatalf("%s: charged %d bytes, want 0 (admit freely)", tc.name, in)
		}
	}
}
