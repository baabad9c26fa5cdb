package workloads

import "math"

// Equal reports whether m and o have the same shape and elements within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if o == nil || m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}
