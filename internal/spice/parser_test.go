package spice

import (
	"math"
	"strings"
	"testing"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"10", 10},
		{"3.3", 3.3},
		{"10n", 10e-9},
		{"10nF", 10e-9},
		{"2.5u", 2.5e-6},
		{"100p", 100e-12},
		{"1f", 1e-15},
		{"4.7k", 4.7e3},
		{"2meg", 2e6},
		{"1g", 1e9},
		{"0.5t", 0.5e12},
		{"1m", 1e-3},
		{"1e-9", 1e-9},
		{"2.5e6", 2.5e6},
		{"-3m", -3e-3},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-15*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "10q", "--3"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q) should fail", bad)
		}
	}
}

func TestParseNetlistRCFilter(t *testing.T) {
	deck := `
* simple RC low-pass
V1 in 0 1.0
R1 in out 1k
C1 out 0 1n ic=0
.end
`
	c, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(1e-9, 10e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Avg("out", 0.2); math.Abs(got-1.0) > 1e-3 {
		t.Errorf("settled output %v, want 1", got)
	}
}

func TestParseNetlistContinuationAndComments(t *testing.T) {
	deck := `
* PWL source across two lines
V1 a 0 PWL 0 0
+ 1u 1 2u 0
R1 a 0 1k ; load
`
	c, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(10e-9, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Peak at ~1us should reach ~1V.
	peak := 0.0
	for _, v := range res.V["a"] {
		if v > peak {
			peak = v
		}
	}
	if math.Abs(peak-1) > 0.02 {
		t.Errorf("PWL peak %v, want ~1", peak)
	}
}

func TestParseNetlistSCConverter(t *testing.T) {
	// A 2:1 SC converter written as a text deck.
	deck := `
* 2:1 switched-capacitor converter, 10 MHz
Vin vin 0 2.0
C1 p n 20n ic=1
S1 vin p 0.05 CLK 10meg 1
S2 n out 0.05 CLK 10meg 1
S3 p out 0.05 CLK 10meg 2
S4 n 0 0.05 CLK 10meg 2
Cload out 0 200n ic=0.9
Iload out 0 0.1
`
	c, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(1/(10e6*64), 40/10e6)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Avg("out", 0.3)
	// Droop below the ideal 1 V, but still regulating near it.
	if v < 0.8 || v >= 1.0 {
		t.Errorf("converter output %v, want in [0.8, 1.0)", v)
	}
}

func TestParseNetlistPulseAndDuty(t *testing.T) {
	deck := `
V1 a 0 PULSE 0 1 1u 0.25
S1 a b 1 DUTY 1meg 0.5 inv
R1 b 0 1k
`
	c, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tran(1e-9, 4e-6); err != nil {
		t.Fatal(err)
	}
}

func TestParseNetlistErrors(t *testing.T) {
	cases := []string{
		"",                    // empty
		"R1 a 0",              // too few fields
		"Q1 a 0 5",            // unknown element
		"R1 a 0 10q",          // bad suffix
		"V1 a 0 PWL 0 0 0 1",  // non-increasing PWL
		"V1 a 0 PWL 0 0 1u",   // odd PWL fields
		"S1 a b 1 CLK 1meg 3", // bad phase
		"S1 a b 1 WAT 1meg 1", // bad mode
		"S1 a b 1 DUTY 1meg",  // missing duty
		".option reltol=1e-3", // unsupported directive
		"V1 a 0 PULSE 0 1 1u", // short PULSE
		"L1 a 0 1u ic=bogus",  // bad IC
		"C1 a 0 -1n",          // negative cap (caught by builder)
	}
	for _, deck := range cases {
		if _, err := ParseNetlist(strings.NewReader(deck)); err == nil {
			t.Errorf("deck %q should fail", deck)
		}
	}
}

// FuzzParseNetlist checks that no input panics the netlist parser: every
// deck either returns an error or parses into a circuit with elements and
// no deferred build error.
func FuzzParseNetlist(f *testing.F) {
	f.Fuzz(func(t *testing.T, deck string) {
		c, err := ParseNetlist(strings.NewReader(deck))
		if err != nil {
			return
		}
		if len(c.elems) == 0 || c.err != nil {
			t.Fatalf("ParseNetlist(%q) accepted a deck with %d elements and build error %v", deck, len(c.elems), c.err)
		}
	})
}
