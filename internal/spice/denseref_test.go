package spice

// Reference implementation of the transient analysis as it was before the
// structure-aware kernel overhaul: per-state dense rebuild +
// numeric.Factorize. The equivalence suite pins the production path
// against it — it is the ground truth the optimized kernel must reproduce
// within 1e-9 relative tolerance.

import (
	"fmt"
	"math"

	"ivory/internal/numeric"
)

// tranDenseRef is the pre-overhaul Tran: rebuilds and densely factorizes
// the full MNA matrix per switch state (cached by state-vector string) and
// allocates a fresh solution per step.
func tranDenseRef(c *Circuit, h, T float64) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if h <= 0 || T <= 0 || T < h {
		return nil, fmt.Errorf("spice: need 0 < h <= T (h=%g, T=%g)", h, T)
	}
	n := len(c.nodeName)
	nb := 0
	for _, e := range c.elems {
		if e.kind == kindV || e.kind == kindVCVS {
			e.branch = n + nb
			nb++
		}
	}
	dim := n + nb
	if dim == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}
	for _, e := range c.elems {
		switch e.kind {
		case kindC:
			e.aux = e.ic
			e.state = 0
		case kindL:
			e.state = e.ic
			e.aux = 0
		}
	}
	steps := int(math.Ceil(T / h))
	res := &Result{
		Times:   make([]float64, 0, steps+1),
		V:       map[string][]float64{},
		SourceI: map[string][]float64{},
	}
	for _, name := range c.nodeName {
		res.V[name] = make([]float64, 0, steps+1)
	}
	for _, e := range c.elems {
		if e.kind == kindV {
			res.SourceI[e.name] = make([]float64, 0, steps+1)
		}
	}
	cache := map[string]*numeric.LU{}
	stateKey := func(t float64) string {
		key := make([]byte, 0, 8)
		for _, e := range c.elems {
			if e.kind == kindSW {
				if e.ctrl(t) {
					key = append(key, '1')
				} else {
					key = append(key, '0')
				}
			}
		}
		return string(key)
	}
	build := func(t float64) (*numeric.LU, error) {
		m := numeric.NewMatrix(dim, dim)
		stamp := func(a, b int, g float64) {
			if a >= 0 {
				m.Add(a, a, g)
			}
			if b >= 0 {
				m.Add(b, b, g)
			}
			if a >= 0 && b >= 0 {
				m.Add(a, b, -g)
				m.Add(b, a, -g)
			}
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindR:
				stamp(e.a, e.b, 1/e.value)
			case kindC:
				stamp(e.a, e.b, 2*e.value/h)
			case kindL:
				stamp(e.a, e.b, h/(2*e.value))
			case kindSW:
				r := e.roff
				if e.ctrl(t) {
					r = e.ron
				}
				stamp(e.a, e.b, 1/r)
			case kindV:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
			case kindVCVS:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
				if e.cp >= 0 {
					m.Add(e.branch, e.cp, -e.gain)
				}
				if e.cn >= 0 {
					m.Add(e.branch, e.cn, e.gain)
				}
			case kindVCCS:
				stampVCCS(m, e)
			}
		}
		for i := 0; i < n; i++ {
			m.Add(i, i, 1e-12)
		}
		res.Refactorizations++
		f, err := numeric.Factorize(m)
		if err != nil {
			return nil, fmt.Errorf("spice: singular MNA matrix: %w", err)
		}
		return f, nil
	}
	rhs := make([]float64, dim)
	x := make([]float64, dim)
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for i, name := range c.nodeName {
			res.V[name] = append(res.V[name], x[i])
		}
		for _, e := range c.elems {
			if e.kind == kindV {
				res.SourceI[e.name] = append(res.SourceI[e.name], -x[e.branch])
			}
		}
	}
	// Initial backward-Euler step from ICs, identical to the production
	// path (which kept this dense one-shot).
	{
		m := numeric.NewMatrix(dim, dim)
		stamp := func(a, b int, g float64) {
			if a >= 0 {
				m.Add(a, a, g)
			}
			if b >= 0 {
				m.Add(b, b, g)
			}
			if a >= 0 && b >= 0 {
				m.Add(a, b, -g)
				m.Add(b, a, -g)
			}
		}
		for i := range rhs {
			rhs[i] = 0
		}
		addI := func(a, b int, i float64) {
			if a >= 0 {
				rhs[a] += i
			}
			if b >= 0 {
				rhs[b] -= i
			}
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindR:
				stamp(e.a, e.b, 1/e.value)
			case kindC:
				g := e.value / h
				stamp(e.a, e.b, g)
				addI(e.a, e.b, g*e.aux)
			case kindL:
				g := h / e.value
				stamp(e.a, e.b, g)
				addI(e.a, e.b, -e.state)
			case kindSW:
				r := e.roff
				if e.ctrl(0) {
					r = e.ron
				}
				stamp(e.a, e.b, 1/r)
			case kindV:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
				rhs[e.branch] = e.wave(0)
			case kindVCVS:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
				if e.cp >= 0 {
					m.Add(e.branch, e.cp, -e.gain)
				}
				if e.cn >= 0 {
					m.Add(e.branch, e.cn, e.gain)
				}
			case kindVCCS:
				stampVCCS(m, e)
			case kindI:
				addI(e.a, e.b, -e.wave(0))
			}
		}
		for i := 0; i < n; i++ {
			m.Add(i, i, 1e-12)
		}
		f, err := numeric.Factorize(m)
		if err != nil {
			return nil, fmt.Errorf("spice: singular matrix at t=0: %w", err)
		}
		copy(x, f.Solve(rhs))
		vAt := func(i int) float64 {
			if i < 0 {
				return 0
			}
			return x[i]
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindC:
				e.aux = vAt(e.a) - vAt(e.b)
				e.state = 0
			case kindL:
				e.aux = 0
			}
		}
	}
	record(0)
	var lu *numeric.LU
	curKey := ""
	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		key := stateKey(t)
		if lu == nil || key != curKey {
			if f, ok := cache[key]; ok {
				lu = f
			} else {
				f, err := build(t)
				if err != nil {
					return nil, err
				}
				cache[key] = f
				lu = f
			}
			curKey = key
		}
		for i := range rhs {
			rhs[i] = 0
		}
		addI := func(a, b int, i float64) {
			if a >= 0 {
				rhs[a] += i
			}
			if b >= 0 {
				rhs[b] -= i
			}
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindC:
				g := 2 * e.value / h
				addI(e.a, e.b, g*e.aux+e.state)
			case kindL:
				g := h / (2 * e.value)
				addI(e.a, e.b, -(e.state + g*e.aux))
			case kindV:
				rhs[e.branch] = e.wave(t)
			case kindI:
				addI(e.a, e.b, -e.wave(t))
			}
		}
		copy(x, lu.Solve(rhs))
		res.Steps++
		vAt := func(i int) float64 {
			if i < 0 {
				return 0
			}
			return x[i]
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindC:
				v := vAt(e.a) - vAt(e.b)
				g := 2 * e.value / h
				iNew := g*(v-e.aux) - e.state
				e.state = iNew
				e.aux = v
			case kindL:
				v := vAt(e.a) - vAt(e.b)
				g := h / (2 * e.value)
				iNew := e.state + g*(v+e.aux)
				e.state = iNew
				e.aux = v
			}
		}
		record(t)
	}
	return res, nil
}
