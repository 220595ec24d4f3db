//go:build !race

package qrio_test

const raceEnabled = false
