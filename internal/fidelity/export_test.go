package fidelity

import (
	"qrio/internal/device"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// Prepare is what Execute runs for a circuit on a backend: the compact
// circuit and its noise model.
func Prepare(e Estimator, c *circuit.Circuit, b *device.Backend) (*circuit.Circuit, *noise.Model, error) {
	_, compact, active, err := e.prepare(c, b)
	if err != nil {
		return nil, nil, err
	}
	return compact, compactModel(b, active), nil
}
