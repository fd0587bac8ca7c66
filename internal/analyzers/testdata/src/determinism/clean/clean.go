// Package clean holds deterministic-package code that must produce no
// diagnostics: seeded local RNG, integer accumulation over maps, keyed map
// writes, writers local to the loop body, single-case selects, and reasoned
// exemptions.
package clean

//lint:deterministic-package

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

func intCountOverMap(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // integer addition commutes; order cannot matter
	}
	return total
}

func keyedAccumOverMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] += v // one bucket per distinct key
	}
	return out
}

func sortedIteration(m map[string]float64) []float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // keys get sorted before use
	}
	sort.Strings(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func perKeyWriters(m map[string]float64) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %g", k, v) // b lives inside one iteration
		out[k] = b.String()
	}
	return out
}

func sortedWrites(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %g\n", k, m[k])
	}
	return b.String()
}

func singleCaseSelect(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func exemptedTrailing(obs func(time.Time)) {
	obs(time.Now()) //lint:deterministic-exempt observer-only timing, never feeds a result
}

func exemptedLineAbove() time.Time {
	//lint:deterministic-exempt wall-clock feeds a log line only
	return time.Now()
}
