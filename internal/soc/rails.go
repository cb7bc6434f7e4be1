package soc

import (
	"sort"

	"ivory/internal/pds"
)

// DefaultRails is the menu a sweep offers each domain when SweepSpec.Rails
// is empty: off-chip VRM, centralized IVR, 2- and 4-way distributed IVRs,
// and a digital LDO. Distribution counts that do not divide a domain's
// core count are infeasible for that domain and assignments using them are
// rejected, not errored.
func DefaultRails() []pds.Rail {
	return []pds.Rail{
		{Kind: pds.OffChipVRM},
		{Kind: pds.CentralizedIVR},
		{Kind: pds.DistributedIVR, N: 2},
		{Kind: pds.DistributedIVR, N: 4},
		{Kind: pds.DigitalLDO},
	}
}

// railLess is the canonical rail order: OffChipVRM < CentralizedIVR <
// DistributedIVR (ascending N) < DigitalLDO. Assignment enumeration and
// candidate keys follow it, so ranked output is independent of the order a
// caller listed the rails in.
func railLess(a, b pds.Rail) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.N < b.N
}

// NormalizeRails validates, canonically sorts, and dedupes a rail menu;
// an empty menu yields DefaultRails. Sweep applies it to SweepSpec.Rails,
// and the serving layer uses it to give semantically identical menus one
// cache key.
func NormalizeRails(rails []pds.Rail) ([]pds.Rail, error) {
	if len(rails) == 0 {
		rails = DefaultRails()
	}
	out := make([]pds.Rail, 0, len(rails))
	for _, r := range rails {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return railLess(out[i], out[j]) })
	dedup := out[:0]
	for i, r := range out {
		if i == 0 || r != out[i-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup, nil
}
