//go:build race

package dnsblplane

func init() { raceEnabled = true }
