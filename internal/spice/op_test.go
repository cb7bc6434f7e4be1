package spice

import (
	"math"
	"testing"
)

// dcSteady runs a transient long enough for every circuit in these tests
// to settle (the slowest time constant is 1 µs) and returns the final node
// voltages and voltage-source currents: the DC operating point as the
// transient engine reaches it.
func dcSteady(t *testing.T, c *Circuit) (v, srcI map[string]float64) {
	t.Helper()
	res, err := c.Tran(10e-9, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Times) - 1
	v, srcI = map[string]float64{}, map[string]float64{}
	for name, w := range res.V {
		v[name] = w[last]
	}
	for name, w := range res.SourceI {
		srcI[name] = w[last]
	}
	return v, srcI
}

func TestOPDivider(t *testing.T) {
	c := NewCircuit()
	c.V("v1", "a", "0", DC(9))
	c.R("r1", "a", "b", 2000)
	c.R("r2", "b", "0", 1000)
	v, srcI := dcSteady(t, c)
	if math.Abs(v["b"]-3) > 1e-6 {
		t.Errorf("divider = %v, want 3", v["b"])
	}
	if math.Abs(srcI["v1"]-3e-3) > 1e-9 {
		t.Errorf("source current %v, want 3 mA", srcI["v1"])
	}
}

func TestOPCapacitorOpenInductorShort(t *testing.T) {
	c := NewCircuit()
	c.V("v1", "a", "0", DC(5))
	c.R("r1", "a", "b", 1000)
	c.C("c1", "b", "0", 1e-9, 0) // open at DC: no current path through it
	c.L("l1", "b", "c", 1e-6, 0) // short at DC
	c.R("r2", "c", "0", 1000)
	v, _ := dcSteady(t, c)
	// Divider through r1-(L short)-r2: b = c = 2.5 V.
	if math.Abs(v["b"]-2.5) > 1e-3 || math.Abs(v["c"]-2.5) > 1e-3 {
		t.Errorf("b=%v c=%v, want 2.5", v["b"], v["c"])
	}
}

func TestOPCurrentSourceAndSwitch(t *testing.T) {
	c := NewCircuit()
	c.I("i1", "0", "a", DC(1e-3)) // 1 mA into node a
	c.R("r1", "a", "0", 1000)
	c.SW("s1", "a", "b", 1, func(float64) bool { return false })
	c.R("r2", "b", "0", 1000)
	v, _ := dcSteady(t, c)
	if math.Abs(v["a"]-1) > 1e-3 {
		t.Errorf("v(a) = %v, want 1", v["a"])
	}
	if v["b"] > 1e-3 {
		t.Errorf("open switch leaked: v(b) = %v", v["b"])
	}
}

func TestOPEmptyCircuit(t *testing.T) {
	c := NewCircuit()
	if _, err := c.Tran(1e-9, 1e-6); err == nil {
		t.Error("empty circuit must fail")
	}
}
