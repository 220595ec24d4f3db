package transpile

import (
	"fmt"
	"strconv"
	"testing"

	"qrio/internal/device"
	"qrio/internal/graph"
	"qrio/internal/memo"
	"qrio/internal/quantum/circuit"
)

// TestReplayHonoursStepCap: a plan that took more routing steps than a
// circuit's cap fails that circuit with the error routing it afresh would
// have stopped at. SABRE-lite shortens the blocked gate's distance every
// step, so no real plan comes near a cap; this one is padded.
func TestReplayHonoursStepCap(t *testing.T) {
	t.Cleanup(memo.Empty)
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
	t.Cleanup(memo.Empty)
	for i := 0; i < 3*maxPlans; i++ {
		k := planKey{skeleton: strconv.Itoa(i)}
		plans.Put(k, &plan{})
		_, found := plans.Get(k)
		if held := plans.Len(); held > maxPlans || !found {
			t.Fatalf("after %d plans the memo holds %d and found the last: %t", i+1, held, found)
		}
	}
}

// TestPlanLookupBuildsNothing: a memoised plan is found without allocating,
// for a skeleton longer than the compiler's 32-byte stack buffer for a
// converted string.
func TestPlanLookupBuildsNothing(t *testing.T) {
	t.Cleanup(memo.Empty)
	b, err := device.UniformBackend("line", graph.Line(9), 0.1, 0.01, 0.02, 100e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(9)
	for r := 0; r < 4; r++ {
		for q := 0; q+1 < 9; q++ {
			c.CX(q, q+1)
		}
	}
	if n := len(appendSkeleton(nil, c)); n <= 32 {
		t.Fatalf("skeleton is %d bytes, want it past 32", n)
	}
	want, err := planFor(c, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got *plan
	if allocs := testing.AllocsPerRun(100, func() { got, _ = planFor(c, b, Options{}) }); allocs != 0 || got != want {
		t.Fatalf("a plan lookup made %.0f allocations (same plan: %t), want 0", allocs, got == want)
	}
}
