package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"

	"dynamips/internal/atlas"
	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
	"dynamips/internal/core"
	"dynamips/internal/experiments"
	"dynamips/internal/isp"
	"dynamips/internal/stats"
)

// paperRun is one pass of `dynamips experiment all`: both pipelines
// built, then every runner rendered into Out.
type paperRun struct {
	Atlas  *experiments.AtlasData
	CDN    *experiments.CDNData
	Out    []byte
	Events float64 // atlas probe-hours observed plus CDN associations
	Cost   cost
}

// paperConfig is the run's pipeline configuration: cfg's sizes with the
// run's seed and one worker.
func paperConfig(cfg experiments.Config, seed int64) experiments.Config {
	cfg.Seed = seed
	cfg.Workers = 1
	return cfg
}

// paperOnce runs the pipelines through experiments.BuildAtlas and
// BuildCDN, or, when tr is non-nil, through the same calls made one by
// one under spans. Each stage and runner is one attempted operation.
func paperOnce(cfg experiments.Config, tr *tracer, out *outcome) (*paperRun, error) {
	pr := &paperRun{}
	m := startMeter()
	root := tr.begin("paper", 0)
	var err error
	out.Attempted++
	if tr == nil {
		pr.Atlas, err = experiments.BuildAtlas(cfg)
	} else {
		pr.Atlas, err = buildAtlasTraced(cfg, tr, root)
	}
	if err != nil {
		return nil, err
	}
	out.Attempted++
	if tr == nil {
		pr.CDN, err = experiments.BuildCDN(cfg)
	} else {
		pr.CDN, err = buildCDNTraced(cfg, tr, root)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	runners := tr.begin("experiments.run", root)
	for _, name := range experiments.Names {
		out.Attempted++
		fmt.Fprintf(&buf, "== %s\n", name)
		id := tr.begin("experiments."+name, runners)
		if experiments.NeedsAtlas(name) {
			err = experiments.RunAtlasExperiment(name, &buf, pr.Atlas)
		} else {
			err = experiments.RunCDNExperiment(name, &buf, pr.CDN)
		}
		tr.end(id)
		if err != nil {
			out.Failed++
			fmt.Fprintf(&buf, "error: %v\n", err)
		}
	}
	tr.end(runners)
	tr.end(root)
	pr.Cost = m.done()
	pr.Out = buf.Bytes()
	for i := range pr.Atlas.Sanitize.Clean {
		pr.Events += float64(pr.Atlas.Sanitize.Clean[i].ObservedHours())
	}
	pr.Events += float64(len(pr.CDN.Dataset.Assocs))
	return pr, nil
}

// probeCounts repeats the per-AS probe counts experiments.BuildAtlas
// uses (Table 1 of the paper). The traced run's output is compared with
// BuildAtlas's, so a drift between the two copies fails the run.
var probeCounts = map[string]int{
	"DTAG": 589, "Comcast": 415, "Orange": 425, "LGI": 445,
	"Free SAS": 138, "Kabel DE": 152, "Proximus": 114, "Versatel": 80,
	"BT": 170, "Netcologne": 43, "Sky UK": 90,
}

// buildAtlasTraced makes experiments.BuildAtlas's calls one at a time.
func buildAtlasTraced(cfg experiments.Config, tr *tracer, parent int) (*experiments.AtlasData, error) {
	a := &experiments.AtlasData{Config: cfg, BGP: &bgp.Table{}, Names: make(map[uint32]string)}
	var all []atlas.Series
	for i, prof := range isp.Profiles() {
		probes := int(float64(probeCounts[prof.Name]) * cfg.ProbeScale)
		if probes < 10 {
			probes = 10
		}
		seed := cfg.Seed + int64(i)*1000
		id := tr.beginAlloc("isp.run", parent)
		res, err := isp.Run(isp.Config{Profile: prof, Subscribers: probes * 2, Hours: cfg.Hours, Seed: seed})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("atlas.fleet", parent)
		fleet, err := atlas.BuildFleet(res, atlas.DefaultFleetConfig(probes, seed+1))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		all = append(all, fleet.Series...)
		for _, e := range fleet.BGP.Entries() {
			a.BGP.Announce(e.Prefix, e.ASN)
		}
		a.Names[prof.ASN] = prof.Name
		a.BGP.SetName(prof.ASN, prof.Name)
		a.ASNs = append(a.ASNs, prof.ASN)
	}
	id := tr.begin("atlas.sanitize", parent)
	a.Sanitize = atlas.Sanitize(all, a.BGP, atlas.DefaultSanitizeConfig())
	tr.end(id)
	id = tr.beginAlloc("core.analyze", parent)
	ec := core.DefaultExtractConfig()
	ec.Workers = cfg.Workers
	pas, err := core.AnalyzeErr(a.Sanitize.Clean, ec)
	if err != nil {
		return nil, err
	}
	a.PAS = pas
	a.Durations = core.CollectDurations(a.PAS)
	tr.end(id)
	return a, nil
}

// buildCDNTraced makes experiments.BuildCDN's calls one at a time.
func buildCDNTraced(cfg experiments.Config, tr *tracer, parent int) (*experiments.CDNData, error) {
	gc := cdn.DefaultGenConfig(cfg.Seed)
	gc.Workers = cfg.Workers
	gc.Days = cfg.CDNDays
	gc.Scale = cfg.CDNScale
	id := tr.begin("cdn.generate", parent)
	ds, err := cdn.Generate(gc)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c := &experiments.CDNData{Dataset: ds}
	id = tr.begin("cdn.episodes", parent)
	c.Mobile = cdn.MobileLabel(ds.Assocs, experiments.MobileDegreeThreshold)
	c.Episodes = cdn.Episodes(ds.Assocs, cdn.DefaultEpisodeConfig())
	c.Groups = cdn.GroupDurations(ds, c.Episodes, c.Mobile)
	tr.end(id)
	return c, nil
}

// paperPassSeconds is the nominal length of one paper-batch pass on a
// 2-vCPU machine; it sets the pass count, not a time limit.
const paperPassSeconds = 12

func runPaper(r run) (*outcome, error) {
	out := &outcome{}
	cfg := paperConfig(r.Size.Paper, r.Seed)
	// paper-batch has no set-up of its own; its set-up phase is one pass
	// at a small configuration, so lazy initialisation and page faults
	// are paid before the timed passes.
	var setup []float64
	for i := 0; i < r.setups(); i++ {
		pr, err := paperOnce(paperConfig(r.Size.Warm, r.Seed), nil, out)
		if err != nil {
			return nil, err
		}
		setup = append(setup, pr.Cost.Time)
	}
	if r.Trace {
		return tracePaper(cfg, out)
	}
	var cs costs
	var events []float64
	var reads [][]float64
	var last *paperRun
	var firstOut []byte
	for i := 0; i < r.passes(paperPassSeconds); i++ {
		last = nil // let the previous pass's data go before the next one
		runtime.GC()
		pr, err := paperOnce(cfg, nil, out)
		if err != nil {
			return nil, err
		}
		if firstOut == nil {
			firstOut = pr.Out
		} else if !bytes.Equal(pr.Out, firstOut) {
			out.fail("paper-batch: pass %d rendered different output from pass 1", len(cs)+1)
		}
		cs = append(cs, pr.Cost)
		events = append(events, pr.Events/pr.Cost.Time)
		reads = append(reads, readBackToBack(r.Size.PaperReadCycles, figureReads(pr), out))
		last = pr
	}
	rss := peakRSSMB()
	checkPaper(last, out)
	out.setEndToEnd(median(setup), cs, events, reads, rss)
	return out, nil
}

// figures are the figures `dynamips experiment <fig> -json` renders.
var figures = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig9"}

// figureReads is what a plotting script reads from the built datasets:
// every figure's series, once each, rendered as the -json output
// (experiments.WriteFigureJSON).
func figureReads(pr *paperRun) []poll {
	var polls []poll
	for _, name := range figures {
		polls = append(polls, poll{{name, func() bool {
			// An empty series list renders as "null\n" or "[]\n".
			var n countWriter
			return experiments.WriteFigureJSON(&n, name, pr.Atlas, pr.CDN) == nil && n > countWriter(len("null\n"))
		}}})
	}
	return polls
}

// countWriter counts the bytes written to it and keeps none.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// tracePaper runs one untraced pass for reference, then the same pass
// under spans, and checks that both rendered the same output.
func tracePaper(cfg experiments.Config, out *outcome) (*outcome, error) {
	runtime.GC()
	ref, err := paperOnce(cfg, nil, out)
	if err != nil {
		return nil, err
	}
	refOut, refCost := ref.Out, ref.Cost
	ref = nil
	runtime.GC()
	tr := newTracer()
	pr, err := paperOnce(cfg, tr, out)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(pr.Out, refOut) {
		out.fail("paper-batch: traced pass rendered different output from the untraced pass")
	}
	checkPaper(pr, out)
	out.tr = tr
	out.Untraced = costFigures(refCost)
	out.Traced = costFigures(pr.Cost)
	l := tr.byName()
	var runners float64
	for _, name := range experiments.Names {
		runners += l.self("experiments." + name)
	}
	out.Metrics = map[string]float64{
		"isp.run_ms":              l.self("isp.run"),
		"atlas.fleet_ms":          l.self("atlas.fleet"),
		"atlas.sanitize_ms":       l.self("atlas.sanitize"),
		"core.analyze_ms":         l.self("core.analyze"),
		"cdn.generate_ms":         l.self("cdn.generate"),
		"cdn.episodes_ms":         l.self("cdn.episodes"),
		"experiments.run_ms":      runners,
		"experiments.zmapbias_ms": l.self("experiments.zmapbias"),
		"isp.alloc_mb":            l.alloc("isp.run"),
		"core.alloc_mb":           l.alloc("core.analyze"),
	}
	return out, nil
}

// checkPaper runs the paper-batch output checks on one pass.
func checkPaper(pr *paperRun, out *outcome) {
	a := pr.Atlas
	asn, period, err := dtagPeriod()
	if err != nil {
		out.fail("paper-batch: %v", err)
	} else if err := checkPeriodic(core.DetectPeriodicRenumbering(a.Durations, 0.05, 0.3), asn, period); err != nil {
		out.fail("paper-batch: %v", err)
	}
	for _, asn := range a.ASNs {
		d := a.Durations[asn]
		if d == nil {
			continue
		}
		for _, pop := range []struct {
			name string
			ds   []float64
		}{{"v4-nds", d.V4NonDS}, {"v4-ds", d.V4DS}, {"v6", d.V6Hr}} {
			if len(pop.ds) == 0 {
				continue
			}
			if err := checkCurves(stats.TotalTimeFraction(pop.ds), stats.CumulativeTotalTimeFraction(pop.ds)); err != nil {
				out.fail("paper-batch: AS%d %s: %v", asn, pop.name, err)
			}
		}
	}
}

// dtagPeriod reads DTAG's configured non-dual-stack renumbering period
// from its ISP profile: the period of its heaviest periodic class.
func dtagPeriod() (uint32, float64, error) {
	for _, p := range isp.Profiles() {
		if p.Name != "DTAG" {
			continue
		}
		var best isp.Class
		for _, c := range p.NDS {
			if c.V4.PeriodHours > 0 && c.Weight > best.Weight {
				best = c
			}
		}
		if best.V4.PeriodHours == 0 {
			break
		}
		return p.ASN, best.V4.PeriodHours, nil
	}
	return 0, 0, fmt.Errorf("no periodic non-dual-stack class in the DTAG profile")
}

// checkPeriodic requires a detected v4-nds mode at period for asn.
func checkPeriodic(found []core.PeriodicAS, asn uint32, period float64) error {
	for _, p := range found {
		if p.ASN != asn || p.Population != "v4-nds" {
			continue
		}
		for _, m := range p.Modes {
			if math.Abs(m.Period-period) <= 0.05*period {
				return nil
			}
		}
	}
	return fmt.Errorf("AS%d: periodic renumbering at %g h not detected", asn, period)
}

// checkCurves requires a total-time-fraction PMF that sums to 1 and a
// CDF that never decreases and ends at 1.
func checkCurves(pmf, cdf []stats.Point) error {
	const eps = 1e-9
	var sum float64
	for _, p := range pmf {
		if p.Y < 0 {
			return fmt.Errorf("PMF has a negative mass %g at %g", p.Y, p.X)
		}
		sum += p.Y
	}
	if math.Abs(sum-1) > eps {
		return fmt.Errorf("PMF sums to %.12f, not 1", sum)
	}
	if len(cdf) == 0 {
		return fmt.Errorf("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Y < cdf[i-1].Y-eps || cdf[i].X < cdf[i-1].X {
			return fmt.Errorf("CDF decreases at point %d", i)
		}
	}
	if last := cdf[len(cdf)-1].Y; math.Abs(last-1) > eps {
		return fmt.Errorf("CDF ends at %.12f, not 1", last)
	}
	return nil
}
