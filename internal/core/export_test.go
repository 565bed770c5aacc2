package core

import "testing"

// registerKnob appends s to the knob registry until the test ends and
// returns the new knob.
func registerKnob(t testing.TB, s knobSpec) Knob {
	k := Knob(len(knobSpecs))
	knobSpecs = append(knobSpecs, s)
	t.Cleanup(func() { knobSpecs = knobSpecs[:k] })
	return k
}
