package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"ivory/internal/experiments"
	"ivory/internal/report"
)

// experimentOrder is `ivory-exp all`'s order; the traced child runs the
// same experiments with the same arguments, one span each.
var experimentOrder = []string{
	"fig4", "fig6", "fig7", "fig8", "fig9", "table1", "table2",
	"fig10", "fig11", "fig12", "fig13",
	"ablations", "twostage", "dvfs", "families", "gridscale", "gears", "variation", "nodes",
	"hybrid",
}

// childReport is what a traced child prints: per-experiment wall times and
// the package counter deltas of one cold process.
type childReport struct {
	ExpMS         map[string]float64 `json:"exp_ms"`
	TraceHits     int64              `json:"trace_hits"`
	TraceMisses   int64              `json:"trace_misses"`
	TopoHits      int64              `json:"topo_hits"`
	TopoMisses    int64              `json:"topo_misses"`
	Cholesky      int64              `json:"cholesky"`
	CG            int64              `json:"cg"`
	CellMS        float64            `json:"cell_ms"`
	AssignmentsPS float64            `json:"assignments_per_s"`
	AllocMB       float64            `json:"alloc_mb"`
	GCs           float64            `json:"gcs"`
	Spans         []Span             `json:"spans"`
}

type csvResult interface {
	WriteCSV(*report.Writer) error
	Format() string
}

// childExperiments runs every experiment of `ivory-exp all` in this fresh
// process, exactly as cmd/ivory-exp dispatches them, with a span around
// each, and prints a childReport.
func childExperiments(dir string) error {
	ctx := context.Background()
	var opt experiments.TransientOptions
	w := report.NewWriter(dir)
	tr := newTracer()
	var noise *experiments.Fig10Result
	getNoise := func() (*experiments.Fig10Result, error) {
		if noise != nil {
			return noise, nil
		}
		n, err := experiments.Fig10Run(ctx, opt)
		noise = n
		return n, err
	}
	var rep childReport
	emit := func(r csvResult, err error) error {
		if err != nil {
			return err
		}
		_ = r.Format()
		return r.WriteCSV(w)
	}
	run := map[string]func() error{
		"fig4":   func() error { return emit(experiments.Fig4(0)) },
		"fig6":   func() error { return emit(experiments.Fig6()) },
		"fig7":   func() error { return emit(experiments.Fig7()) },
		"fig8":   func() error { return emit(experiments.Fig8()) },
		"fig9":   func() error { return emit(experiments.Fig9()) },
		"table1": func() error { _, err := experiments.Table1(); return err },
		"table2": func() error {
			t, err := experiments.Table2Context(ctx)
			if err == nil {
				_ = t.Format()
			}
			return err
		},
		"fig10": func() error { return emit(getNoise()) },
		"fig11": func() error {
			n, err := getNoise()
			if err == nil {
				_ = n.FormatFig11()
			}
			return err
		},
		"fig12": func() error { return emit(experiments.Fig12Run(ctx, opt)) },
		"fig13": func() error {
			n, err := getNoise()
			if err != nil {
				return err
			}
			return emit(experiments.Fig13Run(ctx, n, opt))
		},
		"ablations": func() error { return emit(experiments.AblationsRun(ctx, opt)) },
		"twostage":  func() error { return emit(experiments.TwoStageContext(ctx)) },
		"dvfs":      func() error { return emit(experiments.FastDVFSContext(ctx)) },
		"families":  func() error { return emit(experiments.FamilyTransients()) },
		"gridscale": func() error { return emit(experiments.GridScaleRun(ctx, opt)) },
		"gears":     func() error { return emit(experiments.Gears()) },
		"variation": func() error {
			v, err := experiments.VariationContext(ctx, 0, 0)
			if err == nil {
				_ = v.Format()
			}
			return err
		},
		"nodes": func() error { return emit(experiments.NodeSweepContext(ctx)) },
		"hybrid": func() error {
			h, err := experiments.HybridRun(ctx, opt)
			if err == nil {
				rep.AssignmentsPS = h.Stats.AssignmentsPerSec
			}
			return emit(h, err)
		},
	}
	c0 := readCounters()
	rep.ExpMS = map[string]float64{}
	for _, name := range experimentOrder {
		id := tr.begin("exp."+name, -1, 0)
		err := run[name]()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	c1 := readCounters()
	for _, s := range tr.snapshot() {
		rep.ExpMS[s.Name[len("exp."):]] = float64(s.dur()) / 1e6
	}
	rep.TraceHits, rep.TraceMisses = c1.traceHits-c0.traceHits, c1.traceMisses-c0.traceMisses
	rep.TopoHits, rep.TopoMisses = c1.topoHits-c0.topoHits, c1.topoMisses-c0.topoMisses
	rep.Cholesky, rep.CG = c1.cholesky-c0.cholesky, c1.cg-c0.cg
	rep.AllocMB = float64(c1.allocBytes-c0.allocBytes) / (1 << 20)
	rep.GCs = float64(c1.gcs - c0.gcs)
	rep.CellMS = ratio(ms(noise.RunStats.SimWall), float64(noise.RunStats.Cells))
	rep.Spans = tr.snapshot()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// child runs one cold process and returns its wall time, peak RSS and
// standard output.
func child(bin string, args ...string) (time.Duration, float64, []byte, error) {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return d, 0, nil, fmt.Errorf("%s %v: %w: %.300s", bin, args, err, errb.String())
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return d, rss, out.Bytes(), nil
}

func runReproduce(o options) (*result, error) {
	p, err := loadPins(pinsPath)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(ivoryExp); err != nil {
		return nil, fmt.Errorf("ivory-exp binary: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root := filepath.Join(tmpDir, fmt.Sprintf("reproduce-seed%d", o.seed))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	r := newResult()
	fmt.Printf("reproduce: closed loop, one `ivory-exp -outdir <fresh dir> all` process at a time; inputs are fixed, the seed only names directories\n")

	var setups []float64
	var prev string
	// prepare is the set-up of one run: clear the previous run's output
	// (its CSVs and directory) and create a fresh, empty output directory.
	prepare := func() (string, error) {
		t0 := time.Now()
		if err := os.RemoveAll(prev); err != nil {
			return "", err
		}
		dir := filepath.Join(root, strconv.Itoa(len(setups)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		setups = append(setups, time.Since(t0).Seconds())
		prev = dir
		return dir, nil
	}
	var quality bool
	// In a traced run every odd run is the traced child instead of the
	// shipped binary; the two kinds interleave, so their medians give the
	// tracing overhead.
	var lat, latTraced, rss []float64
	var reps []childReport
	sent := 0
	stop := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for run := 0; run < 2 || time.Now().Before(stop); run++ {
		traced := o.trace && run%2 == 1
		dir, err := prepare()
		if err != nil {
			return nil, err
		}
		var wall time.Duration
		var peak float64
		var out []byte
		if traced {
			wall, peak, out, err = child(self, "-child-exp", dir)
		} else {
			sent++
			wall, peak, out, err = child(ivoryExp, "-outdir", dir, "all")
		}
		r.attempted++
		if err == nil {
			var got map[string]string
			if got, err = csvDigests(dir); err == nil {
				err = checkDigests(got, p.Reproduce)
			}
		}
		if err == nil && traced {
			var cr childReport
			if err = json.Unmarshal(out, &cr); err == nil {
				reps = append(reps, cr)
			}
		}
		if err == nil && !quality {
			quality = true
			err = qualityLines(r, dir)
		}
		switch {
		case err != nil:
			r.fail(err)
		case traced:
			latTraced = append(latTraced, ms(wall))
		default:
			lat = append(lat, ms(wall))
			rss = append(rss, peak)
		}
	}
	latencyMetrics(r, lat)
	r.e2e["rss_mb"] = median(rss)
	good := 0
	for _, l := range lat {
		if l <= reproduceLimitMS {
			good++
		}
	}
	r.e2e["goodput"] = ratio(float64(good), float64(sent))
	if o.trace {
		r.layer["trace.overhead_pct"] = (median(latTraced)/median(lat) - 1) * 100
		childMetrics(r, reps)
		spans := make([][]Span, len(reps))
		for i, c := range reps {
			spans[i] = c.Spans
		}
		// One span list per traced child, each timed from its own start.
		if err := writeJSON(spansDir, fmt.Sprintf("reproduce-seed%d.json", o.seed), spans); err != nil {
			return nil, err
		}
	}
	r.e2e["setup_s"] = median(setups)
	return r, nil
}

// reproduceLimitMS is the latency limit a reproduction run must meet to
// count toward goodput.
const reproduceLimitMS = 2000.0

// childMetrics takes the per-layer medians over the traced children.
func childMetrics(r *result, reps []childReport) {
	pick := func(f func(childReport) float64) float64 {
		var xs []float64
		for _, c := range reps {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	for _, name := range experimentOrder {
		name := name
		r.layer["exp."+name+"_ms"] = pick(func(c childReport) float64 { return c.ExpMS[name] })
	}
	r.layer["soc.sweep_ms"] = r.layer["exp.hybrid_ms"]
	r.layer["soc.assignments_per_s"] = pick(func(c childReport) float64 { return c.AssignmentsPS })
	r.layer["pds.cell_ms"] = pick(func(c childReport) float64 { return c.CellMS })
	r.layer["pds.trace_hit_ratio"] = pick(func(c childReport) float64 {
		return ratio(float64(c.TraceHits), float64(c.TraceHits+c.TraceMisses))
	})
	r.layer["pds.trace_lookups"] = pick(func(c childReport) float64 { return float64(c.TraceHits + c.TraceMisses) })
	r.layer["topology.hit_ratio"] = pick(func(c childReport) float64 {
		return ratio(float64(c.TopoHits), float64(c.TopoHits+c.TopoMisses))
	})
	r.layer["topology.lookups"] = pick(func(c childReport) float64 { return float64(c.TopoHits + c.TopoMisses) })
	r.layer["grid.cholesky"] = pick(func(c childReport) float64 { return float64(c.Cholesky) })
	r.layer["grid.cg"] = pick(func(c childReport) float64 { return float64(c.CG) })
	r.layer["runtime.alloc_mb"] = pick(func(c childReport) float64 { return c.AllocMB })
	r.layer["runtime.gc_count"] = pick(func(c childReport) float64 { return c.GCs })
	groups := map[string][]string{
		"spice": {"fig4", "fig6", "fig7", "fig8", "fig9", "families"},
		"grid":  {"gridscale"},
		"pds":   {"fig10", "fig11", "fig12", "fig13", "ablations", "dvfs", "gears"},
		"core":  {"table1", "table2", "twostage", "nodes", "variation"},
		"soc":   {"hybrid"},
	}
	for _, layer := range []string{"spice", "grid", "pds", "core", "soc"} {
		var total float64
		for _, e := range groups[layer] {
			total += r.layer["exp."+e+"_ms"]
		}
		fmt.Printf("reproduce layer %-5s %9.2f ms over %v\n", layer, total, groups[layer])
	}
}

// qualityLines prints the reproduction's headline numbers beside the
// timings: the Fig 13 delivery-efficiency gain of the best IVR
// configuration over the off-chip VRM, and the Fig 7/8 model-vs-MNA max
// errors. The reference is the repository's own MNA substrate, not
// silicon.
func qualityLines(r *result, dir string) error {
	col := func(file, name string) ([]string, []float64, error) {
		recs, err := readCSV(filepath.Join(dir, file))
		if err != nil {
			return nil, nil, err
		}
		j := -1
		for i, h := range recs[0] {
			if h == name {
				j = i
			}
		}
		if j < 0 {
			return nil, nil, fmt.Errorf("%s: no column %s", file, name)
		}
		var keys []string
		var vals []float64
		for _, rec := range recs[1:] {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", file, err)
			}
			keys, vals = append(keys, rec[0]), append(vals, v)
		}
		return keys, vals, nil
	}
	cfgs, eff, err := col("fig13.csv", "efficiency")
	if err != nil {
		return err
	}
	var off, best float64
	for i, c := range cfgs {
		if c == "off-chip VRM" {
			off = eff[i]
		} else {
			best = math.Max(best, eff[i])
		}
	}
	_, e7, err := col("fig7.csv", "err")
	if err != nil {
		return err
	}
	_, cond, err := col("fig8.csv", "eff_model_cond")
	if err != nil {
		return err
	}
	_, sim, err := col("fig8.csv", "eff_sim")
	if err != nil {
		return err
	}
	var max7, max8 float64
	for _, e := range e7 {
		max7 = math.Max(max7, e)
	}
	for i := range cond {
		max8 = math.Max(max8, math.Abs(cond[i]-sim[i]))
	}
	r.layer["check.fig13_ivr_gain_pp"] = (best - off) * 100
	r.layer["check.fig7_max_err_pct"] = max7 * 100
	r.layer["check.fig8_max_err_pct"] = max8 * 100
	fmt.Printf("quality: Fig 13 IVR gain %.2f pp over the off-chip VRM; Fig 7 max model-vs-MNA error %.2f%%, Fig 8 %.2f%% (reference: the repository's own MNA simulator, not silicon)\n",
		(best-off)*100, max7*100, max8*100)
	return nil
}
