//go:build race

package collect

const raceEnabled = true
