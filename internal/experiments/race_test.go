//go:build race

package experiments

// raceEnabled reports a -race build: the detector slows the real engine
// and wire several-fold, so timing-shape assertions do not hold under it.
const raceEnabled = true
