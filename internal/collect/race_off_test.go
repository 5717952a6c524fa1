//go:build !race

package collect

// raceEnabled mirrors the race build tag so allocation-count pins can
// skip under -race: the detector makes sync.Pool drop items at random,
// which distorts AllocsPerRun without indicating a real regression.
const raceEnabled = false
