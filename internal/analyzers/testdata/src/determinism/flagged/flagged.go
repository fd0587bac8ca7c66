// Package flagged exercises every determinism diagnostic.
package flagged

//lint:deterministic-package

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time\.Now in a deterministic package`
}

func sinceStart(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in a deterministic package`
}

func globalRand() float64 {
	return rand.Float64() // want `global math/rand\.Float64 shares process-wide RNG state`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand\.Shuffle`
}

func racySelect(a, b chan int) int {
	select { // want `select with 2 communication cases picks one at random`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func mapOrderAppend(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m { // want `map iteration order is randomized but the loop body performs append into out`
		out = append(out, v)
	}
	return out
}

func mapOrderFloatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want `compound accumulation into total`
		total += v
	}
	return total
}

func mapOrderStringConcat(m map[string]string) string {
	s := ""
	for _, v := range m { // want `compound accumulation into s`
		s += v
	}
	return s
}

func mapOrderSend(m map[string]int, ch chan int) {
	for _, v := range m { // want `a channel send`
		ch <- v
	}
}

func mapOrderFprintf(m map[string]float64) string {
	var b strings.Builder
	for k, v := range m { // want `a write to b`
		fmt.Fprintf(&b, "%s %g\n", k, v)
	}
	return b.String()
}

func mapOrderWriterParam(m map[string]string, w io.Writer) {
	for _, v := range m { // want `a write to w`
		w.Write([]byte(v))
	}
}

func mapOrderBuilder(m map[string]string) string {
	b := new(strings.Builder)
	for _, v := range m { // want `a write to b`
		b.WriteString(v)
	}
	return b.String()
}

func mapOrderBuffer(m map[byte]bool, buf *bytes.Buffer) {
	for k := range m { // want `a write to buf`
		buf.WriteByte(k)
	}
}

func bareExemption() time.Time {
	return time.Now() //lint:deterministic-exempt // want `time\.Now in a deterministic package` `bare //lint:deterministic-exempt directive: a reason is required`
}
