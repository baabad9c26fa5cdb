package partition

// MergeFunc folds the result value of one key from a later fragment into
// the accumulated value from earlier fragments. It is the user-programmed
// Merge of Fig. 6 ("the Merge function needs to be programmed by the user
// to support different applications") and must be associative so fragment
// order cannot change the result.
type MergeFunc[R any] func(acc, next R) R

// SumMerge adds per-fragment values — the word-count merger, where each
// fragment contributes partial counts for a word.
func SumMerge[R int | int64 | float64](acc, next R) R { return acc + next }
