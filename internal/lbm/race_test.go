//go:build race

package lbm

// raceDetector reports whether the tests run under the race detector, under
// which sync.Pool drops a share of what is put back.
const raceDetector = true
