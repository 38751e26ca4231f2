package report

import "fmt"

// Formatting helpers shared by experiment renderers. All output is plain
// ASCII with fixed precision, so rendered tables are stable across
// platforms and usable as golden files.

// Prob renders a probability with six decimal places — enough to compare
// an exact schedule-space probability against a Monte Carlo estimate
// without drowning the table in digits.
func Prob(p float64) string { return fmt.Sprintf("%.6f", p) }

// Interval renders a confidence interval on a probability.
func Interval(lo, hi float64) string {
	return fmt.Sprintf("[%.4f, %.4f]", lo, hi)
}

// YesNo renders a boolean check ASCII-stably; failures shout.
func YesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
