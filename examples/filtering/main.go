// Characteristics filtering: a user bounds the device properties they can
// tolerate (paper use case 1 / Fig. 10). Tight bounds shrink the candidate
// set before any expensive ranking runs — and an impossible bound is refused
// at submission with a typed UnschedulableError naming why each device
// failed, instead of parking in the queue or wasting classical
// pre-processing.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"qrio"
)

func main() {
	spec := qrio.DefaultFleetSpec()
	spec.QubitCounts = []int{15, 20, 27}
	fleet, err := qrio.GenerateFleet(spec)
	if err != nil {
		log.Fatal(err)
	}
	q, err := qrio.New(qrio.Config{Backends: fleet})
	if err != nil {
		log.Fatal(err)
	}
	q.Start()
	defer q.Stop()

	src, err := qrio.DumpQASM(qrio.GHZ(5))
	if err != nil {
		log.Fatal(err)
	}

	// Sweep the max average two-qubit error the user will accept.
	fmt.Println("devices surviving each two-qubit error bound:")
	for _, bound := range []float64{0.07, 0.2, 0.4, 0.68} {
		count := 0
		for _, b := range fleet {
			if b.AvgTwoQubitErr() <= bound {
				count++
			}
		}
		fmt.Printf("  max 2q error %.2f -> %2d of %d devices\n", bound, count, len(fleet))
	}

	// A realistic bound: rank only the decent third of the fleet.
	job, res, err := q.SubmitAndWait(qrio.SubmitRequest{
		JobName:        "ghz-filtered",
		QASM:           src,
		Shots:          512,
		Strategy:       qrio.StrategyFidelity,
		TargetFidelity: 1.0,
		Requirements: qrio.DeviceRequirements{
			MaxAvg2QError: 0.25,
			MinT1us:       200e3,
		},
	}, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfiltered job landed on %s (achieved fidelity %.4f)\n",
		job.Status.Node, res.Fidelity)

	// An impossible bound: no device can ever hold the job, so the intake
	// refuses it before it is stored or scored.
	_, err = q.Submit(qrio.SubmitRequest{
		JobName:        "ghz-impossible",
		QASM:           src,
		Strategy:       qrio.StrategyFidelity,
		TargetFidelity: 1.0,
		Requirements:   qrio.DeviceRequirements{MaxAvg2QError: 0.001},
	})
	var unschedulable *qrio.UnschedulableError
	if !errors.As(err, &unschedulable) {
		log.Fatalf("impossible bound: want an unschedulable refusal, got %v", err)
	}
	fmt.Printf("impossible bound: refused at submission — %d of %d devices rejected it\n",
		len(unschedulable.Rejected), len(fleet))
}
