//go:build race

package qrio_test

// raceEnabled reports that the race detector is compiled in: it changes what
// the heap holds and slows a cold sweep tenfold.
const raceEnabled = true
