package partition

// SetRecyclePoison installs fn as the hook Run calls on every fragment
// buffer it recycles, for the tests of package partition_test, and returns
// the function that removes it.
func SetRecyclePoison(fn func(buf []byte)) (restore func()) {
	testRecyclePoison = fn
	return func() { testRecyclePoison = nil }
}
