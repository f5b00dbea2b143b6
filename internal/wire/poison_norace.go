//go:build !race

package wire

// poisonPut is off outside race-detector builds (see poison_race.go).
const poisonPut = false
