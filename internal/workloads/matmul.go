package workloads

import (
	"fmt"
	"math/rand"
	"strconv"

	"mcsd/internal/mapreduce"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandomMatrix returns a rows x cols matrix with deterministic pseudo-random
// entries in [-1, 1).
func RandomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MatMulSeq is the sequential baseline: the classic triple loop with the
// inner loops ordered for row-major locality.
func MatMulSeq(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("workloads: matmul shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c, nil
}

// RowIndexInput encodes the map-task input for MatMulSpec: one decimal row
// index per line. Splitting it with LineSplitter gives each map task "a set
// of rows of the output matrix" (§V-A).
func RowIndexInput(rows int) []byte {
	var out []byte
	for i := 0; i < rows; i++ {
		out = strconv.AppendInt(out, int64(i), 10)
		out = append(out, '\n')
	}
	return out
}

// MatMulSpec returns the Matrix Multiplication application of §V-A: each
// Map computes a set of output rows (keyed by row ID, the value being the
// computed row — the paper keys by row and column ID with the element as
// value; we key at row granularity, which preserves the identity-reduce
// structure with far fewer intermediate pairs); "the reduce task is just
// the identity function".
func MatMulSpec(a, b *Matrix) mapreduce.Spec[int, []float64, []float64] {
	return mapreduce.Spec[int, []float64, []float64]{
		Name:  "matmul",
		Split: mapreduce.LineSplitter,
		Map: func(chunk []byte, emit func(int, []float64)) error {
			start := 0
			for pos := 0; pos <= len(chunk); pos++ {
				if pos != len(chunk) && chunk[pos] != '\n' {
					continue
				}
				line := chunk[start:pos]
				start = pos + 1
				if len(line) == 0 {
					continue
				}
				i, err := strconv.Atoi(string(line))
				if err != nil {
					return fmt.Errorf("workloads: bad row index %q: %w", line, err)
				}
				if i < 0 || i >= a.Rows {
					return fmt.Errorf("workloads: row index %d out of range [0,%d)", i, a.Rows)
				}
				row := make([]float64, b.Cols)
				for k := 0; k < a.Cols; k++ {
					aik := a.At(i, k)
					brow := b.Row(k)
					for j := range row {
						row[j] += aik * brow[j]
					}
				}
				emit(i, row)
			}
			return nil
		},
		Reduce: func(_ int, rows [][]float64) ([]float64, error) {
			// Identity: each row ID is produced exactly once.
			return rows[0], nil
		},
		Less:            func(x, y int) bool { return x < y },
		FootprintFactor: 2,
	}
}

// AssembleMatrix rebuilds the product matrix from MapReduce output pairs.
func AssembleMatrix(rows, cols int, pairs []mapreduce.Pair[int, []float64]) (*Matrix, error) {
	m := NewMatrix(rows, cols)
	seen := make([]bool, rows)
	for _, p := range pairs {
		if p.Key < 0 || p.Key >= rows {
			return nil, fmt.Errorf("workloads: assembled row %d out of range", p.Key)
		}
		if seen[p.Key] {
			return nil, fmt.Errorf("workloads: duplicate row %d", p.Key)
		}
		if len(p.Value) != cols {
			return nil, fmt.Errorf("workloads: row %d has %d cols, want %d", p.Key, len(p.Value), cols)
		}
		seen[p.Key] = true
		copy(m.Row(p.Key), p.Value)
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("workloads: missing row %d", i)
		}
	}
	return m, nil
}
