//go:build race

package feed_test

func init() { raceScale = 10 }
