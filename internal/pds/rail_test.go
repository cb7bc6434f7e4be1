package pds

import "testing"

func TestParseRail(t *testing.T) {
	good := map[string]Rail{
		"vrm":      {Kind: OffChipVRM},
		"off-chip": {Kind: OffChipVRM},
		"IVR":      {Kind: CentralizedIVR},
		"ivr1":     {Kind: CentralizedIVR},
		" ivr4 ":   {Kind: DistributedIVR, N: 4},
		"ldo":      {Kind: DigitalLDO},
	}
	for tok, want := range good {
		got, err := ParseRail(tok)
		if err != nil || got != want {
			t.Errorf("ParseRail(%q) = %v, %v; want %v", tok, got, err, want)
		}
	}
	for _, tok := range []string{"", "buck", "ivr0", "ivr-3", "ivrx"} {
		if _, err := ParseRail(tok); err == nil {
			t.Errorf("ParseRail(%q) must fail", tok)
		}
	}
	// Round trip through String.
	for _, r := range []Rail{{Kind: OffChipVRM}, {Kind: CentralizedIVR}, {Kind: DistributedIVR, N: 3}, {Kind: DigitalLDO}} {
		got, err := ParseRail(r.String())
		if err != nil || got != r {
			t.Errorf("round trip %v -> %q -> %v, %v", r, r.String(), got, err)
		}
	}
}

func TestIVRRail(t *testing.T) {
	for n, want := range map[int]string{0: "off-chip VRM", 1: "centralized IVR", 2: "2 distributed IVRs", 4: "4 distributed IVRs"} {
		r := IVRRail(n)
		if err := r.Validate(); err != nil || r.Label() != want {
			t.Errorf("IVRRail(%d) = %v (%q), %v; want %q", n, r, r.Label(), err, want)
		}
	}
}

// FuzzParseRail checks that ParseRail never panics, that every rail it
// accepts is valid, and that the rail survives a round trip through its
// String token.
func FuzzParseRail(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRail(s)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseRail(%q) = %v, which fails validation: %v", s, r, err)
		}
		back, err := ParseRail(r.String())
		if err != nil || back != r {
			t.Fatalf("round trip %q -> %v -> %q -> %v, %v", s, r, r.String(), back, err)
		}
	})
}
