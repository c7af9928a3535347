//go:build !race

package lbm

const raceDetector = false
