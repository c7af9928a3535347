//go:build !race

package planstore_test

const raceDetector = false
