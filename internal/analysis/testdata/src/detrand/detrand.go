// Package detrand is golden-test input for the detrand analyzer.
package detrand

import (
	"math/rand" // want `import of math/rand in a simulation package`
	"os"
	"time"
)

// The import is the finding; every use of the package is already
// downstream of it.
func hostRandom() int {
	return rand.Int()
}

func seedFromClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in a simulation package; use virtual time \(sim\.Time, advanced by the engine's epoch loop\) instead`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in a simulation package`
}

func readKnob() string {
	return os.Getenv("XNUMA_KNOB") // want `os\.Getenv in a simulation package`
}

func knobSet() bool {
	_, ok := os.LookupEnv("XNUMA_KNOB") // want `os\.LookupEnv in a simulation package`
	return ok
}

// Clean: virtual-time arithmetic uses time.Duration values without
// consulting the wall clock.
func scale(d time.Duration, n int) time.Duration {
	return d * time.Duration(n)
}
