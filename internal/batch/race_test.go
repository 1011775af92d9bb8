//go:build race

package batch

// raceEnabled sizes TestParkedHandshakeStress: the full count runs where the
// detector perturbs the interleavings (and keeps the combiner hot).
const raceEnabled = true
