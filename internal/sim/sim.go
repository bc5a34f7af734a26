// Package sim provides the two deterministic primitives every simulated
// subsystem shares: virtual time and a reproducible pseudo-random number
// generator.
//
// Nothing in this package (or in any package built on it) reads the wall
// clock; virtual time advances only as the engine's epoch loop steps it.
// Two runs with the same seed and the same inputs are bit-identical — the
// property that lets the paper's evaluation (§5) be regenerated
// reproducibly and the golden engine fixture hold bit-for-bit.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
