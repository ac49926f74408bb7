//go:build !race

package population

const raceEnabled = false
