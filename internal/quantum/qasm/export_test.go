package qasm

// Parses reports how many times Parse has run in this process.
func Parses() int64 { return parses.Load() }
