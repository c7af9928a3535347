//go:build race

package planstore_test

// raceDetector reports whether the tests run under the race detector, under
// which sync.Pool drops a share of what is put back: allocation counts of
// pooled paths are then not the program's.
const raceDetector = true
