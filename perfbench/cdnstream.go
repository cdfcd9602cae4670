package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"dynamips/internal/cdn"
	"dynamips/internal/cdn/stream"
	"dynamips/internal/experiments"
	"dynamips/internal/sketch"
)

// cdnGenConfig is the association dataset cdn-stream analyses.
func cdnGenConfig(r run) cdn.GenConfig {
	gc := cdn.DefaultGenConfig(r.Seed)
	gc.Workers = 1
	gc.Scale = r.Size.CDNScale
	gc.Days = r.Size.CDNDays
	return gc
}

// writeCSV is cdn-stream's set-up: `dynamips gen cdn -stream` into path.
func writeCSV(gc cdn.GenConfig, path, spill string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stream.Generate(stream.GenConfig{Gen: gc, SpillDir: spill}, f); err != nil {
		f.Close()
		return fmt.Errorf("generating %s: %w", path, err)
	}
	return f.Close()
}

// analysis is one `dynamips analyze-cdn -stream` pass.
type analysis struct {
	Report   *cdn.Report
	Rendered []byte
	SpillMB  float64 // bytes left under the spill directory
	Cost     cost
}

func analyzeOnce(in, spill string, tr *tracer) (*analysis, error) {
	m := startMeter()
	id := tr.beginAlloc("stream.analyze", 0)
	rep, err := stream.Analyze(stream.AnalyzeConfig{
		In: in, Shards: stream.DefaultShards, Workers: 1,
		Threshold: experiments.MobileDegreeThreshold, SpillDir: spill,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		return nil, err
	}
	an := &analysis{Report: rep, Rendered: buf.Bytes(), Cost: m.done()}
	an.SpillMB = float64(dirBytes(spill)) / 1e6
	return an, os.RemoveAll(spill)
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// setUpCSV writes the input r.setups() times and returns the median
// time. Every write produces the same file.
func setUpCSV(r run, in string, tr *tracer, out *outcome) (float64, error) {
	var setup []float64
	for i := 0; i < r.setups(); i++ {
		spill := filepath.Join(r.Work, "gen-spill")
		out.Attempted++
		m := startMeter()
		id := tr.begin("stream.generate", 0)
		err := writeCSV(cdnGenConfig(r), in, spill)
		tr.end(id)
		setup = append(setup, m.done().Time)
		if err != nil {
			return 0, err
		}
		if err := os.RemoveAll(spill); err != nil {
			return 0, err
		}
	}
	return median(setup), nil
}

// cdnPassSeconds is the nominal length of one cdn-stream analysis.
const cdnPassSeconds = 4

func runCDNStream(r run) (*outcome, error) {
	out := &outcome{}
	in := filepath.Join(r.Work, "assocs.csv")
	var tr *tracer
	if r.Trace {
		tr = newTracer()
	}
	setup, err := setUpCSV(r, in, tr, out)
	if err != nil {
		return nil, err
	}
	if r.Trace {
		return traceCDNStream(r, in, tr, out)
	}
	var cs costs
	var events []float64
	var reads [][]float64
	var last *analysis
	for i := 0; i < r.passes(cdnPassSeconds); i++ {
		runtime.GC()
		out.Attempted++
		an, err := analyzeOnce(in, filepath.Join(r.Work, "spill"), nil)
		if err != nil {
			return nil, err
		}
		if last != nil && !bytes.Equal(an.Rendered, last.Rendered) {
			out.fail("cdn-stream: pass %d rendered a different report", len(cs)+1)
		}
		cs = append(cs, an.Cost)
		events = append(events, float64(an.Report.Assocs)/an.Cost.Time)
		reads = append(reads, readBackToBack(r.Size.CDNReadCycles, sketchReads(an.Report.Sketches), out))
		last = an
	}
	rss := peakRSSMB()
	checkCDNStream(in, last, out)
	out.setEndToEnd(setup, cs, events, reads, rss)
	return out, nil
}

// watchProbs is the quantile grid a `dynamips watch` tick prints.
var watchProbs = []float64{0.5, 0.9, 0.99}

// sketchReads is what one `dynamips watch -spill` tick reads from an
// analysis's online summaries once they are folded: for every sketch,
// the top three heavy hitters, the distinct-count estimate and its RSE,
// or the count and, when it has samples, the quantiles of watchProbs.
// One tick is one read.
func sketchReads(s *sketch.Set) []poll {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	tick := func() bool {
		ok := true
		for _, name := range s.Names() {
			switch s.KindOf(name) {
			case sketch.KindTopK:
				ok = ok && len(s.TopK(name).Top(3)) > 0
			case sketch.KindCard:
				c := s.Card(name)
				ok = ok && finite(c.Estimate()) && finite(c.RSE())
			case sketch.KindQuantile:
				q := s.Quantile(name)
				for _, p := range watchProbs {
					ok = ok && (q.Count() == 0 || finite(q.Query(p)))
				}
			}
		}
		return ok
	}
	return []poll{{{"watch.tick", tick}}}
}

// checkCDNStream compares the streamed report with the in-memory oracle
// over the same file and bounds the cardinality sketches by the exact
// distinct counts.
func checkCDNStream(in string, an *analysis, out *outcome) {
	f, err := os.Open(in)
	if err != nil {
		out.fail("cdn-stream: %v", err)
		return
	}
	assocs, err := cdn.ReadCSV(f)
	f.Close()
	if err != nil {
		out.fail("cdn-stream: oracle read: %v", err)
		return
	}
	if err := checkReport(an.Rendered, assocs); err != nil {
		out.fail("cdn-stream: %v", err)
	}
	k24 := make(map[uint32]struct{})
	k64 := make(map[uint64]struct{})
	for _, a := range assocs {
		k24[a.K24] = struct{}{}
		k64[a.K64] = struct{}{}
	}
	s := an.Report.Sketches
	for _, c := range []struct {
		name  string
		exact int
	}{{stream.SkPfx24, len(k24)}, {stream.SkPfx64, len(k64)}} {
		card := s.Card(c.name)
		if card == nil {
			out.fail("cdn-stream: no %s sketch", c.name)
		} else if err := checkCard(c.name, card.Estimate(), card.RSE(), c.exact, true); err != nil {
			out.fail("cdn-stream: %v", err)
		}
	}
}

// checkReport requires rendered to equal the oracle cdn.BuildReport's
// rendering over the same associations, byte for byte.
func checkReport(rendered []byte, assocs []cdn.Association) error {
	var want bytes.Buffer
	if err := cdn.BuildReport(assocs, nil, experiments.MobileDegreeThreshold, nil).Render(&want); err != nil {
		return err
	}
	if !bytes.Equal(rendered, want.Bytes()) {
		return fmt.Errorf("streamed report differs from the in-memory oracle:\n%s--- oracle ---\n%s", rendered, want.Bytes())
	}
	return nil
}

// checkCard requires a cardinality estimate of at least (1 - 3·RSE) of
// exact; when exactSet, the sketch counts exactly that set, so it must
// also stay below (1 + 3·RSE) of it.
func checkCard(name string, est, rse float64, exact int, exactSet bool) error {
	lo := (1 - 3*rse) * float64(exact)
	if est < lo {
		return fmt.Errorf("%s: estimate %.0f below %.0f = (1-3·%.4f)·%d", name, est, lo, rse, exact)
	}
	if hi := (1 + 3*rse) * float64(exact); exactSet && est > hi {
		return fmt.Errorf("%s: estimate %.0f above %.0f = (1+3·%.4f)·%d", name, est, hi, rse, exact)
	}
	return nil
}

// traceCDNStream runs one untraced analysis for reference, then the
// traced one, then times the layers the analysis is built from over
// the same records: the CSV scan, the binary chunk codec, and the tail
// sketch fold.
func traceCDNStream(r run, in string, tr *tracer, out *outcome) (*outcome, error) {
	spill := filepath.Join(r.Work, "spill")
	runtime.GC()
	out.Attempted++
	ref, err := analyzeOnce(in, spill, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	out.Attempted++
	an, err := analyzeOnce(in, spill, tr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(an.Rendered, ref.Rendered) {
		out.fail("cdn-stream: traced analysis rendered a different report")
	}
	recs, err := scanTraced(in, tr)
	if err != nil {
		return nil, err
	}
	if err := codecRoundTrip(recs, tr); err != nil {
		out.fail("cdn-stream: %v", err)
	}
	id := tr.begin("sketch.fold", 0)
	tail := stream.NewTailSet()
	for _, a := range recs {
		stream.FoldTail(tail, a)
	}
	tr.end(id)
	if got, want := tail.Card(stream.SkPfx24).Estimate(), an.Report.Sketches.Card(stream.SkPfx24).Estimate(); got != want {
		out.fail("cdn-stream: tail fold pfx24 %.0f differs from the analysis's %.0f", got, want)
	}
	checkCDNStream(in, an, out)
	out.tr = tr
	out.Untraced = costFigures(ref.Cost)
	out.Traced = costFigures(an.Cost)
	l := tr.byName()
	out.Metrics = map[string]float64{
		"stream.generate_ms": l.self("stream.generate"),
		"stream.analyze_ms":  l.self("stream.analyze"),
		"cdn.scan_csv_ms":    l.self("cdn.scan_csv"),
		"stream.codec_ms":    l.self("stream.codec"),
		"sketch.fold_ms":     l.self("sketch.fold"),
		"stream.spill_mb":    an.SpillMB,
		"stream.alloc_mb":    l.alloc("stream.analyze"),
	}
	return out, nil
}

// scanTraced reads every record of the CSV with cdn.ScanCSV.
func scanTraced(in string, tr *tracer) ([]cdn.Association, error) {
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []cdn.Association
	id := tr.begin("cdn.scan_csv", 0)
	err = cdn.ScanCSV(f, func(a cdn.Association) error {
		recs = append(recs, a)
		return nil
	})
	tr.end(id)
	return recs, err
}

// codecRoundTrip writes every record through stream.Writer into memory
// and reads it back with stream.Reader, requiring the same records.
func codecRoundTrip(recs []cdn.Association, tr *tracer) error {
	var buf bytes.Buffer
	buf.Grow(len(recs)*18 + 1<<16) // 18 bytes per encoded record
	id := tr.begin("stream.codec", 0)
	defer tr.end(id)
	w, err := stream.NewWriter(&buf)
	if err != nil {
		return err
	}
	for _, a := range recs {
		if err := w.Append(a); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	rd, err := stream.NewReader(&buf)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		a, ok, err := rd.Next()
		if err != nil {
			return fmt.Errorf("codec read back: %w", err)
		}
		if !ok {
			if i != len(recs) {
				return fmt.Errorf("codec read back %d of %d records", i, len(recs))
			}
			return nil
		}
		if i >= len(recs) || a != recs[i] {
			return fmt.Errorf("codec record %d read back differently", i)
		}
	}
}
