package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"ivory/internal/server"
)

// The benchmark's inputs are generated here from the workload seed alone;
// the program under test only ever sees the resulting request bodies.

// nodes are the eight technology nodes of the built-in library, listed
// here rather than read from the program so a library change cannot
// silently reshape the stream.
var nodes = []string{"10nm", "14nm", "22nm", "32nm", "45nm", "65nm", "90nm", "130nm"}

// rails is the default per-domain delivery menu of the hybrid sweep.
var rails = []string{"vrm", "ivr", "ivr2", "ivr4", "ldo"}

// benchmarks are the built-in transient workloads.
var benchmarks = []string{"BACKP", "BFS2", "CFD", "HOTSP", "KMN", "LUD", "MGST"}

const (
	hotSpecs = 16
	// menuSeed fixes the hybrid and transient request menus independently
	// of the workload seed, so every body the stream can carry has a
	// digest pinned in pins.json.
	menuSeed          = 20170618
	hybridVariants    = 128
	transientVariants = 384
)

// request is one scheduled call of the serve stream.
type request struct {
	Due      time.Duration
	Endpoint string // "explore", "hybrid" or "transient"
	Body     []byte
	// Variant indexes the pinned hybrid/transient menu; -1 for explore.
	Variant int
	Spec    server.SpecDTO
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// randomSpec draws an exploration spec across all nodes and the Table-1
// ranges. The area budget grows with the load current so every spec has
// at least one feasible converter.
func randomSpec(rng *rand.Rand, search string) server.SpecDTO {
	vin := round3(1.2 + 2.4*rng.Float64())
	vout := round3(math.Min(0.6+0.6*rng.Float64(), 0.75*vin))
	imax := round3(0.5 + 7.5*rng.Float64())
	area := round3(2.5 + imax*(0.8+0.8*rng.Float64()))
	return server.SpecDTO{Node: nodes[rng.Intn(len(nodes))], VInV: vin, VOutV: vout, IMaxA: imax, AreaMM2: area, Search: search}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain DTOs always marshal
	}
	return b
}

// subset draws k distinct items of from, in random order.
func subset(rng *rand.Rand, from []string, k int) []string {
	idx := rng.Perm(len(from))[:k]
	out := make([]string, k)
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

// hybridMenu is the fixed list of hybrid requests the serve stream draws
// from: varied area budgets, rail menus (always offering the off-chip VRM,
// so every floorplan has a feasible assignment) and spans. The spans make
// the PDS trace keys differ between variants.
func hybridMenu() []server.HybridRequest {
	rng := rand.New(rand.NewSource(menuSeed))
	budgets := []float64{0, 12, 18, 25, 35}
	out := make([]server.HybridRequest, hybridVariants)
	for i := range out {
		menu := append([]string{"vrm"}, subset(rng, rails[1:], 1+rng.Intn(len(rails)-1))...)
		rng.Shuffle(len(menu), func(a, b int) { menu[a], menu[b] = menu[b], menu[a] })
		out[i] = server.HybridRequest{
			AreaBudgetMM2: budgets[rng.Intn(len(budgets))],
			Rails:         menu,
			TUS:           2 + 0.25*float64(rng.Intn(16)),
		}
	}
	return out
}

// transientMenu is the fixed list of transient requests: benchmark subsets,
// configuration sets (always including the off-chip VRM baseline), spans
// and steps. 7 benchmarks x 32 spans x 2 steps give up to 448 trace keys,
// far past the PDS trace cache's 64-entry cap, and a run draws few enough
// requests from the menu that new keys keep arriving until it ends.
func transientMenu() []server.TransientRequest {
	rng := rand.New(rand.NewSource(menuSeed + 1))
	cfgs := []int{1, 2, 4}
	out := make([]server.TransientRequest, transientVariants)
	for i := range out {
		c := []int{0}
		for _, j := range rng.Perm(len(cfgs))[:1+rng.Intn(len(cfgs))] {
			c = append(c, cfgs[j])
		}
		out[i] = server.TransientRequest{
			TUS:        2 + 0.25*float64(rng.Intn(16)),
			DtNS:       float64(1 + rng.Intn(2)),
			Benchmarks: subset(rng, benchmarks, 1+rng.Intn(3)),
			Configs:    c,
		}
	}
	return out
}

// block is the request mix of every 20 consecutive arrivals: 15 explore
// (5 from the hot set, 5 unique exhaustive, 5 unique adaptive), 4 hybrid
// and 1 transient, shuffled within the block. Dealing the mix from a deck
// keeps each class's share exact on every seed, so runs differ in which
// specs they send, never in how many of each kind.
var block = []string{
	"hot", "hot", "hot", "hot", "hot",
	"exhaustive", "exhaustive", "exhaustive", "exhaustive", "exhaustive",
	"adaptive", "adaptive", "adaptive", "adaptive", "adaptive",
	"hybrid", "hybrid", "hybrid", "hybrid",
	"transient",
}

// serveStream generates the open-loop Poisson stream for one run: arrivals
// at rate per second over span, 75% explore (a third of them from a
// 16-spec hot set, the rest half exhaustive and half adaptive), 20% hybrid
// and 5% transient. It also returns the hot set, which the server is
// warmed with.
func serveStream(seed int64, rate float64, span time.Duration) ([]server.SpecDTO, []request) {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]server.SpecDTO, hotSpecs)
	for i := range hot {
		hot[i] = randomSpec(rng, []string{"exhaustive", "adaptive"}[i%2])
	}
	hyb, tra := hybridMenu(), transientMenu()
	deck := append([]string(nil), block...)
	var out []request
	var t float64
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return hot, out
		}
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		r := request{Due: due, Variant: -1}
		switch kind := deck[i%len(deck)]; kind {
		case "hot", "exhaustive", "adaptive":
			spec := hot[rng.Intn(hotSpecs)]
			if kind != "hot" {
				spec = randomSpec(rng, kind)
			}
			r.Endpoint, r.Spec = "explore", spec
			r.Body = mustJSON(server.ExploreRequest{Spec: spec})
		case "hybrid":
			r.Endpoint, r.Variant = "hybrid", rng.Intn(len(hyb))
			r.Body = mustJSON(hyb[r.Variant])
		default:
			r.Endpoint, r.Variant = "transient", rng.Intn(len(tra))
			r.Body = mustJSON(tra[r.Variant])
		}
		out = append(out, r)
	}
}

// clusterSpec draws the i-th unique large exhaustive exploration of a
// cluster run. Nodes rotate in pairs, so every run carries the same node
// mix and the traced (odd) and untraced (even) calls of a traced run see
// the same nodes. The conversion ratio stays in the 2:1-3.5:1 band, where
// the sweep sizes close to a thousand configurations on every node. The
// spec index is folded into the load current so no two requests share a
// cache key.
func clusterSpec(rng *rand.Rand, i int) server.SpecDTO {
	vin := round3(1.8 + 1.2*rng.Float64())
	vout := round3(math.Max(0.6, vin/(2+1.5*rng.Float64())))
	imax := round3(1+4*rng.Float64()) + float64(i)*1e-6
	area := round3(8 + 4*rng.Float64() + imax)
	return server.SpecDTO{Node: nodes[i/2%len(nodes)], VInV: vin, VOutV: vout, IMaxA: imax, AreaMM2: area, Search: "exhaustive"}
}

// digest fingerprints a request stream byte for byte: due times,
// endpoints and bodies.
func digest(reqs []request) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.Due))
		h.Write(buf[:])
		h.Write([]byte(r.Endpoint))
		h.Write(r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
