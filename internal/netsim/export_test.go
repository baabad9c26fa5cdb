package netsim

// AllowN reports whether n tokens are immediately available, consuming them
// if so. It never blocks.
func (l *Limiter) AllowN(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advance()
	if l.tokens >= float64(n) {
		l.tokens -= float64(n)
		return true
	}
	return false
}
