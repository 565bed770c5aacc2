//go:build race

package main

// raceEnabled reports that the tests run under the race detector. Its
// instrumentation is the leaf frame of most CPU profile samples then.
const raceEnabled = true
