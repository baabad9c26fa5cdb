//go:build race

package nfs

// raceEnabled reports a -race build: the detector multiplies the cost of
// every copy a stream makes, so latency bounds sized to a link's round
// trips do not hold under it.
const raceEnabled = true
