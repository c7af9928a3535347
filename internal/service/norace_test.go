//go:build !race

package service

const raceDetector = false
