package statevec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qrio/internal/quantum/circuit"
)

// TestNormPreservation: any sequence of unitary gates preserves the state
// norm — the core invariant of the simulator.
func TestNormPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		s, err := New(n)
		if err != nil {
			return false
		}
		names := []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"}
		for i := 0; i < 40; i++ {
			switch rng.Intn(4) {
			case 0:
				s.Apply1Q(rng.Intn(n), circuit.Gate{
					Name: names[rng.Intn(len(names))]}.MustMatrix1Q())
			case 1:
				a := rng.Intn(n)
				s.ApplyCX(a, (a+1+rng.Intn(n-1))%n)
			case 2:
				a := rng.Intn(n)
				s.ApplyCZ(a, (a+1+rng.Intn(n-1))%n)
			case 3:
				s.Apply1Q(rng.Intn(n), circuit.U3Matrix(
					rng.Float64()*6, rng.Float64()*6, rng.Float64()*6))
			}
		}
		norm := 0.0
		for _, p := range s.Probabilities() {
			norm += p
		}
		return math.Abs(norm-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestMeasurementPreservesNormalization: post-measurement states remain
// normalised regardless of outcome.
func TestMeasurementPreservesNormalization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		s, _ := New(n)
		for q := 0; q < n; q++ {
			s.Apply1Q(q, circuit.U3Matrix(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3))
		}
		s.ApplyCX(0, 1)
		s.ApplyCX(1, 2)
		s.MeasureQubit(rng.Intn(n), rng.Float64())
		norm := 0.0
		for _, p := range s.Probabilities() {
			norm += p
		}
		return math.Abs(norm-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSwapIsPermutation: ApplySwap permutes amplitudes exactly.
func TestSwapIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, _ := New(3)
	for q := 0; q < 3; q++ {
		s.Apply1Q(q, circuit.U3Matrix(rng.Float64()*3, rng.Float64(), rng.Float64()))
	}
	before := append([]complex128(nil), s.Amplitudes()...)
	s.ApplySwap(0, 2)
	after := s.Amplitudes()
	for i := range before {
		// Swap qubits 0 and 2 of index i.
		b0, b2 := (i>>0)&1, (i>>2)&1
		j := (i &^ 0b101) | (b0 << 2) | (b2 << 0)
		if before[i] != after[j] {
			t.Fatalf("swap broke amplitude %d -> %d", i, j)
		}
	}
}

// TestCloneIsIndependent mutating a clone leaves the original untouched.
func TestCloneIsIndependent(t *testing.T) {
	s, _ := New(2)
	s.Apply1Q(0, circuit.Gate{Name: circuit.GateH}.MustMatrix1Q())
	c := s.Clone()
	c.ApplyCX(0, 1)
	if math.Abs(s.ProbOne(1)) > 1e-12 {
		t.Fatal("clone shares amplitudes with original")
	}
}

// TestSampleIndexMatchesDistribution: empirical sampling converges to the
// state's probabilities.
func TestSampleIndexMatchesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, _ := New(2)
	s.Apply1Q(0, circuit.U3Matrix(1.0, 0, 0)) // biased qubit
	probs := s.Probabilities()
	counts := make([]int, 4)
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[s.SampleIndex(rng.Float64())]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / trials
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("index %d: sampled %v, want %v", i, got, p)
		}
	}
}
