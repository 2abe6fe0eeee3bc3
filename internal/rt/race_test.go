//go:build race

package rt

func init() { raceEnabled = true }
