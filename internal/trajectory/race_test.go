//go:build race

package trajectory

// raceEnabled reports whether the race detector instruments this test
// binary; timing guards skip under it, since it slows the engine and the
// reference by different factors.
const raceEnabled = true
