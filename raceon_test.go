//go:build race

package memories

// raceDetectorEnabled skips the checks whose subject the race detector
// distorts, such as allocation counts.
const raceDetectorEnabled = true
