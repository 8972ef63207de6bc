//go:build !race

package memories

const raceDetectorEnabled = false
