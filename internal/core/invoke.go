package core

import "context"

// Typed wrappers over Runtime.Invoke for the standard modules: each
// dispatches the module, decodes its output, and returns the job Result
// for placement/attempt metadata.

// invokeAs offloads module with params p and decodes its output as a T.
func invokeAs[T any](ctx context.Context, r *Runtime, module string, p any) (*T, *Result, error) {
	res, err := r.Invoke(ctx, module, p)
	if err != nil {
		return nil, nil, err
	}
	out := new(T)
	if err := Decode(res.Payload, out); err != nil {
		return nil, res, err
	}
	return out, res, nil
}

// WordCount offloads a word count and decodes the frequency table.
func (r *Runtime) WordCount(ctx context.Context, p WordCountParams) (*WordCountOutput, *Result, error) {
	return invokeAs[WordCountOutput](ctx, r, ModuleWordCount, p)
}

// StringMatch offloads a string match and decodes the hit counts.
func (r *Runtime) StringMatch(ctx context.Context, p StringMatchParams) (*StringMatchOutput, *Result, error) {
	return invokeAs[StringMatchOutput](ctx, r, ModuleStringMatch, p)
}

// MatMul offloads a matrix multiplication and decodes its checksums.
func (r *Runtime) MatMul(ctx context.Context, p MatMulParams) (*MatMulOutput, *Result, error) {
	return invokeAs[MatMulOutput](ctx, r, ModuleMatMul, p)
}

// DBSelect offloads a selection/aggregation and decodes the aggregate.
func (r *Runtime) DBSelect(ctx context.Context, p DBSelectParams) (*DBSelectOutput, *Result, error) {
	return invokeAs[DBSelectOutput](ctx, r, ModuleDBSelect, p)
}

// KMeans offloads an out-of-core k-means and decodes the centroids.
func (r *Runtime) KMeans(ctx context.Context, p KMeansParams) (*KMeansOutput, *Result, error) {
	return invokeAs[KMeansOutput](ctx, r, ModuleKMeans, p)
}
