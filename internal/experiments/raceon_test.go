//go:build race

package experiments

// raceDetectorEnabled lets the expensive checks shrink under `go test
// -race`: the race detector multiplies the experiment runs' time, and
// the golden, snapshot and equivalence checks assert determinism, not
// synchronization, so they skip (`make experiments` runs them without
// the detector). The shape runs still execute under race, and
// TestSharedStreamMatchesSeparateRuns runs streams side by side.
const raceDetectorEnabled = true
