package fidelity

// Prepare is Estimator.prepare: the compact circuit and noise model a dense
// engine runs for a circuit on a backend.
var Prepare = Estimator.prepare

// EmptyExactMemo empties the memo of exact distributions.
func EmptyExactMemo() {
	exacts.Lock()
	defer exacts.Unlock()
	clear(exacts.m)
}
