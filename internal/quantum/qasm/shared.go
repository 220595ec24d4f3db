package qasm

import (
	"sync"

	"qrio/internal/quantum/circuit"
)

// sharedSlots bounds ParseShared's memo. A recurring workload needs one
// entry per circuit it keeps submitting; a one-off circuit needs its entry
// only from submission to execution.
const sharedSlots = 32

// shared maps a source text to its parsed circuit; ring holds the texts in
// insertion order, and the oldest is evicted when a new one arrives.
var shared = struct {
	sync.Mutex
	byText map[string]*circuit.Circuit
	ring   [sharedSlots]string
	next   int
}{byText: make(map[string]*circuit.Circuit, sharedSlots)}

// ParseShared is Parse behind a bounded, process-wide memo keyed by the
// exact source text: the intake and execution paths that each need a job's
// circuit parse its text once while it recurs. The circuit returned is
// shared with every other caller of the same text and must not be modified
// (copy it first; a shallow copy is enough to rename it). Errors are never
// stored, so an unparseable text fails the same way as Parse every time.
func ParseShared(src string) (*circuit.Circuit, error) {
	shared.Lock()
	c, ok := shared.byText[src]
	shared.Unlock()
	if ok {
		return c, nil
	}
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	shared.Lock()
	defer shared.Unlock()
	if have, ok := shared.byText[src]; ok {
		return have, nil // a concurrent miss stored it first
	}
	delete(shared.byText, shared.ring[shared.next])
	shared.ring[shared.next] = src
	shared.next = (shared.next + 1) % sharedSlots
	shared.byText[src] = c
	return c, nil
}
