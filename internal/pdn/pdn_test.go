package pdn

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"ivory/internal/numeric"
)

func typical(t *testing.T) *Network {
	t.Helper()
	n, err := TypicalOffChip(100e-9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty ladder must fail")
	}
	if _, err := New(Stage{Name: "x", R: 0, L: 1e-9, C: 1e-6}); err == nil {
		t.Error("zero R must fail")
	}
	if _, err := New(Stage{Name: "x", R: 1e-3, L: 1e-9, C: 1e-6, ESR: -1}); err == nil {
		t.Error("negative ESR must fail")
	}
	if _, err := TypicalOffChip(0, 1e-3); err == nil {
		t.Error("zero die decap must fail")
	}
	if _, err := TypicalOffChip(1e-9, 0); err == nil {
		t.Error("zero grid R must fail")
	}
}

func TestStagesCopied(t *testing.T) {
	stages := []Stage{{Name: "x", R: 1e-3, L: 1e-9, C: 1e-6}}
	n, err := New(stages...)
	if err != nil {
		t.Fatal(err)
	}
	stages[0].R = 999
	if numeric.ApproxEqual(n.TotalR(), 999, 0) {
		t.Error("New must copy the ladder")
	}
}

// resonancePeak scans [fLo, fHi] logarithmically and returns the frequency
// and magnitude of the largest impedance peak — the anti-resonance that
// dominates first-droop noise.
func resonancePeak(n *Network, fLo, fHi float64, points int) (f, z float64) {
	f = fLo
	for i := 0; i < points; i++ {
		freq := fLo * math.Pow(fHi/fLo, float64(i)/float64(points-1))
		if m := cmplx.Abs(n.Impedance(freq)); m > z {
			f, z = freq, m
		}
	}
	return f, z
}

func TestImpedanceDCEqualsTotalR(t *testing.T) {
	n := typical(t)
	zdc := cmplx.Abs(n.Impedance(0))
	if math.Abs(zdc-n.TotalR())/n.TotalR() > 1e-9 {
		t.Errorf("|Z(0)| = %v, want total R %v", zdc, n.TotalR())
	}
}

func TestImpedanceLowFrequencyLimit(t *testing.T) {
	n := typical(t)
	// At very low (non-zero) frequency the decaps are nearly open, so the
	// impedance approaches the series resistance.
	z := cmplx.Abs(n.Impedance(0.01))
	if math.Abs(z-n.TotalR())/n.TotalR() > 0.05 {
		t.Errorf("|Z(0.01 Hz)| = %v, want ~%v", z, n.TotalR())
	}
}

func TestImpedanceHighFrequencyDecapShunt(t *testing.T) {
	n := typical(t)
	// Far above all resonances the die decap shunts the load: |Z| falls
	// toward the die ESR.
	z := cmplx.Abs(n.Impedance(10e9))
	die := n.stages[2]
	if z > 2*die.ESR+1e-3 {
		t.Errorf("|Z(10 GHz)| = %v, expected near die ESR %v", z, die.ESR)
	}
}

func TestResonancePeakExists(t *testing.T) {
	n := typical(t)
	f, z := resonancePeak(n, 1e4, 1e9, 400)
	if z <= n.TotalR() {
		t.Errorf("no anti-resonance found: peak %v at %v Hz", z, f)
	}
	// First-droop resonance of die decap against package inductance lands
	// in the tens-to-hundreds of MHz for these parameters.
	if f < 1e6 || f > 1e9 {
		t.Errorf("resonance at %v Hz outside plausible band", f)
	}
}

func TestMoreDieDecapLowersResonanceFrequency(t *testing.T) {
	n1, err := TypicalOffChip(50e-9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := TypicalOffChip(500e-9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	f1, z1 := resonancePeak(n1, 1e5, 1e9, 600)
	f2, z2 := resonancePeak(n2, 1e5, 1e9, 600)
	if f2 >= f1 {
		t.Errorf("more decap should lower the resonance: %v -> %v Hz", f1, f2)
	}
	if z2 >= z1 {
		t.Errorf("more decap should damp the peak: %v -> %v ohm", z1, z2)
	}
}

func TestTransientDCSteadyState(t *testing.T) {
	n := typical(t)
	vSrc := 1.0
	iLoad := func(t float64) float64 { return 2.0 }
	ts, vs, err := n.TransientContext(context.Background(), vSrc, iLoad, 1e-9, 2e-6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := vSrc - 2.0*n.TotalR()
	// Starts and stays at DC steady state.
	for i := range ts {
		if math.Abs(vs[i]-want) > 1e-6 {
			t.Fatalf("t=%v: v=%v, want steady %v", ts[i], vs[i], want)
		}
	}
}

func TestTransientStepDroopAndRecovery(t *testing.T) {
	n := typical(t)
	vSrc := 1.0
	step := func(t float64) float64 {
		if t < 200e-9 {
			return 0.5
		}
		return 5.0
	}
	_, vs, err := n.TransientContext(context.Background(), vSrc, step, 0.2e-9, 10e-6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vMin := vs[0]
	for _, v := range vs {
		if v < vMin {
			vMin = v
		}
	}
	vFinalDC := vSrc - 5.0*n.TotalR()
	// The droop must overshoot below the final DC level (first droop), but
	// stay physical (not below, say, 100x the IR drop).
	if vMin >= vFinalDC-1e-6 {
		t.Errorf("no dynamic droop: min %v vs final DC %v", vMin, vFinalDC)
	}
	if vMin < vSrc-0.5 {
		t.Errorf("droop implausibly deep: %v", vMin)
	}
	// Settles near final DC at the end.
	vEnd := vs[len(vs)-1]
	if math.Abs(vEnd-vFinalDC) > 2e-3 {
		t.Errorf("did not settle: %v vs %v", vEnd, vFinalDC)
	}
}

func TestTransientInvalidArgs(t *testing.T) {
	n := typical(t)
	if _, _, err := n.TransientContext(context.Background(), 1, func(float64) float64 { return 0 }, 0, 1e-6, nil, nil); err == nil {
		t.Error("zero dt must fail")
	}
	if _, _, err := n.TransientContext(context.Background(), 1, func(float64) float64 { return 0 }, 1e-9, 0, nil, nil); err == nil {
		t.Error("zero T must fail")
	}
}

func TestStateSpaceDimensions(t *testing.T) {
	n := typical(t)
	a, b, c, d := n.StateSpace()
	k := len(n.stages)
	if a.Rows != 2*k || a.Cols != 2*k {
		t.Errorf("A is %dx%d, want %dx%d", a.Rows, a.Cols, 2*k, 2*k)
	}
	if b.Rows != 2*k || b.Cols != 2 {
		t.Errorf("B is %dx%d", b.Rows, b.Cols)
	}
	if len(c) != 2*k || len(d) != 2 {
		t.Errorf("C/D lengths %d/%d", len(c), len(d))
	}
}

// Impedance returns the analytic complex impedance seen by the load at frequency f
// (Hz), with the source ideal (shorted). Computed by backward ladder
// reduction: starting from the source, each step is a series R+jωL followed
// by a parallel decap branch.
func (n *Network) Impedance(f float64) complex128 {
	omega := 2 * math.Pi * f
	z := complex(0, 0) // ideal source
	for _, s := range n.stages {
		z += complex(s.R, omega*s.L)
		// Shunt branch: ESR + 1/(jωC).
		var zc complex128
		if omega == 0 {
			// DC: decap branch is open.
			continue
		}
		zc = complex(s.ESR, -1/(omega*s.C))
		z = z * zc / (z + zc)
	}
	return z
}
