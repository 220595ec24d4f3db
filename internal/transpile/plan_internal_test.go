package transpile

import (
	"fmt"
	"strconv"
	"testing"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/quantum/circuit"
)

// TestReplayHonoursStepCap: a plan that took more routing steps than a
// circuit's cap fails that circuit with the error routing it afresh would
// have stopped at. SABRE-lite shortens the blocked gate's distance every
// step, so no real plan comes near a cap; this one is padded.
func TestReplayHonoursStepCap(t *testing.T) {
	t.Cleanup(ResetPlans)
	b, err := device.UniformBackend("line", graph.Line(5), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(5) // a star: qubit 0 has four partners, a line qubit two
	for q := 1; q < 5; q++ {
		c.CX(0, q)
	}
	opts := Options{}
	res, err := Transpile(c, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedSwaps == 0 {
		t.Fatal("a star on a line routed without swaps")
	}
	p, err := planFor(c, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Steps past the last two-qubit gate are never emitted, only counted.
	p.swaps = append(p.swaps, make([][2]int32, stepCap(c, b)+1-len(p.swaps))...)
	_, err = Transpile(c, b, opts)
	if want := fmt.Sprintf("transpile: routing failed to converge (device %s)", b.Name); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	// A member of the same skeleton with more gates has a higher cap.
	wider := c.Copy()
	for i := 0; i < 10; i++ {
		wider.H(i % 5)
	}
	if _, err := Transpile(wider, b, opts); err != nil {
		t.Fatalf("a circuit whose cap covers the plan failed: %v", err)
	}
}

// TestPlanMemoIsBounded: the memo never holds more than maxPlans plans, and
// the latest plan is always found.
func TestPlanMemoIsBounded(t *testing.T) {
	t.Cleanup(ResetPlans)
	for i := 0; i < 3*maxPlans; i++ {
		k := planKey{skeleton: strconv.Itoa(i)}
		memoise(k, &plan{})
		plans.Lock()
		held, found := len(plans.m), plans.m[k] != nil
		plans.Unlock()
		if held > maxPlans || !found {
			t.Fatalf("after %d plans the memo holds %d and found the last: %t", i+1, held, found)
		}
	}
}
