//go:build race

package stream

// raceDetector reports whether the tests run under the race detector, whose
// shadow memory multiplies what a test allocates.
const raceDetector = true
