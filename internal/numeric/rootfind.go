package numeric

import "errors"

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting the tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// GoldenSectionMin minimizes a unimodal function f on [a, b] to x-tolerance
// tol and returns the minimizing x. Used to refine the design optimizer's
// grid search along continuous axes (e.g. switching frequency).
func GoldenSectionMin(f func(float64) float64, a, b, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 300 && b-a > tol; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return 0.5 * (a + b)
}
