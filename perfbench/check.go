package main

import (
	"fmt"
	"math"
	"slices"

	"decaynet"
)

// checkMetricity requires ζ finite and ≥ 1.
func checkZeta(zeta float64) error {
	if math.IsNaN(zeta) || math.IsInf(zeta, 0) || zeta < 1 {
		return fmt.Errorf("ζ = %v, want finite and ≥ 1", zeta)
	}
	return nil
}

// checkPhi requires ϕ = 2^φ finite and ≥ 1, i.e. φ finite and ≥ 0.
func checkPhi(phi float64) error {
	if math.IsNaN(phi) || math.IsInf(phi, 0) || phi < 0 {
		return fmt.Errorf("φ = lg ϕ = %v, want finite and ≥ 0", phi)
	}
	return nil
}

// checkCapacity requires a non-empty capacity set that is feasible under p.
func checkCapacity(eng *decaynet.Engine, p decaynet.Power, set []int) error {
	if len(set) == 0 {
		return fmt.Errorf("empty capacity set")
	}
	if !eng.Feasible(p, set) {
		return fmt.Errorf("capacity set of %d links is infeasible", len(set))
	}
	return nil
}

// checkSchedule requires slots that are each feasible and cover links
// (nil = all) exactly once.
func checkSchedule(eng *decaynet.Engine, p decaynet.Power, links []int, slots [][]int) error {
	if err := eng.ValidateSchedule(p, links, slots); err != nil {
		return fmt.Errorf("schedule of %d slots: %w", len(slots), err)
	}
	return nil
}

// checkAnalysis is the analyze op's check: ζ and ϕ in range, a feasible
// capacity set and a valid schedule.
func checkAnalysis(eng *decaynet.Engine, p decaynet.Power, zeta, phi float64, set []int, slots [][]int) error {
	if err := checkZeta(zeta); err != nil {
		return err
	}
	if err := checkPhi(phi); err != nil {
		return err
	}
	if err := checkCapacity(eng, p, set); err != nil {
		return err
	}
	return checkSchedule(eng, p, nil, slots)
}

// checkStatus requires a 2xx HTTP status.
func checkStatus(route string, code int) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("%s: status %d", route, code)
	}
	return nil
}

// checkVersion requires a mutation to advance the session version by
// exactly one.
func checkVersion(prev, got uint64) error {
	if got != prev+1 {
		return fmt.Errorf("version %d after version %d, want %d", got, prev, prev+1)
	}
	return nil
}

// checkTwin requires a value and its twin's to be bit-identical.
func checkTwin(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: %v, twin has %v", what, got, want)
	}
	return nil
}

// checkTwinSet requires two link sets to be equal.
func checkTwinSet(what string, got, want []int) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: %d links differ from the twin's %d", what, len(got), len(want))
	}
	return nil
}
