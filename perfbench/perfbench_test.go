package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynamips/internal/bng"
	"dynamips/internal/bng/stripe"
	"dynamips/internal/cdn"
	"dynamips/internal/core"
	"dynamips/internal/experiments"
	"dynamips/internal/stats"
)

func smallRun(t *testing.T, workload string, seed int64, trace bool) *outcome {
	t.Helper()
	r := run{Workload: workload, Seed: seed, Seconds: 0.1, Trace: trace, Work: t.TempDir(), Size: smallSize()}
	out, err := r.measure()
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	for _, p := range out.Problems {
		t.Errorf("%s seed %d trace %v: check failed: %s", workload, seed, trace, p)
	}
	if out.Attempted == 0 || out.Failed != 0 {
		t.Errorf("%s seed %d: attempted %d, failed %d", workload, seed, out.Attempted, out.Failed)
	}
	if _, err := resultLine(out, trace); err != nil {
		t.Errorf("%s seed %d: %v", workload, seed, err)
	}
	return out
}

// layersOf lists the per-layer metrics each workload's traced run
// measures; every other per-layer metric reads 0 there.
var layersOf = map[string][]string{
	"paper-batch": {"isp.run_ms", "atlas.fleet_ms", "atlas.sanitize_ms", "core.analyze_ms",
		"cdn.generate_ms", "cdn.episodes_ms", "experiments.run_ms", "experiments.zmapbias_ms",
		"isp.alloc_mb", "core.alloc_mb"},
	"cdn-stream": {"stream.generate_ms", "stream.analyze_ms", "cdn.scan_csv_ms", "stream.codec_ms",
		"sketch.fold_ms", "stream.spill_mb", "stream.alloc_mb"},
	"bng-churn": {"bng.round_ms", "bng.round_alloc_mb", "stripe.put_ns", "stripe.get_ns",
		"dhcp4.handle_ns", "dhcp6.handle_ns", "radius.handle_ns"},
	"bng-serve": {"bng.round_ms", "stripe.snapshot_ms", "stripe.hash_ms", "sketch.merge_ms",
		"sketch.encode_ms", "bng.stats_encode_ms", "bng.http_ha_ms", "bng.http_snapshot_ms",
		"bng.http_sketch_ms", "bng.http_stats_ms", "bng.http_query_ms", "bng.http_sessions_ms"},
}

// TestWorkloads runs every workload at a small size with all its checks,
// untraced on two seeds and traced on one.
func TestWorkloads(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				out := smallRun(t, name, seed, false)
				for _, d := range endToEnd {
					if v := out.Metrics[d.Name]; !(v > 0) {
						t.Errorf("seed %d: %s = %v, want > 0", seed, d.Name, v)
					}
				}
			}
			out := smallRun(t, name, 1, true)
			for _, m := range layersOf[name] {
				if v := out.Metrics[m]; !(v > 0) {
					t.Errorf("traced: %s = %v, want > 0", m, v)
				}
			}
			if out.Untraced["wall_s"] <= 0 || out.Traced["wall_s"] <= 0 {
				t.Errorf("traced run lacks its own end-to-end figures: %v %v", out.Untraced, out.Traced)
			}
		})
	}
}

func TestLayersCoverPerLayerMetrics(t *testing.T) {
	seen := make(map[string]bool)
	for _, ms := range layersOf {
		for _, m := range ms {
			seen[m] = true
		}
	}
	for _, d := range perLayer {
		if !seen[d.Name] && d.Name != "bng.reader_lag_ms" {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
	}
}

func TestCheckPeriodic(t *testing.T) {
	asn, period, err := dtagPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if asn != 3320 || period != 24 {
		t.Fatalf("DTAG profile: AS%d period %g, want AS3320 24 h", asn, period)
	}
	good := []core.PeriodicAS{{ASN: asn, Population: "v4-nds", Modes: []stats.Mode{{Period: 24, Fraction: 0.8}}}}
	if err := checkPeriodic(good, asn, period); err != nil {
		t.Errorf("detected period rejected: %v", err)
	}
	for name, found := range map[string][]core.PeriodicAS{
		"nothing detected": nil,
		"wrong period":     {{ASN: asn, Population: "v4-nds", Modes: []stats.Mode{{Period: 48}}}},
		"wrong population": {{ASN: asn, Population: "v4-ds", Modes: []stats.Mode{{Period: 24}}}},
		"wrong AS":         {{ASN: 3215, Population: "v4-nds", Modes: []stats.Mode{{Period: 24}}}},
	} {
		if checkPeriodic(found, asn, period) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCurves(t *testing.T) {
	ds := []float64{24, 24, 24, 48, 200}
	pmf, cdf := stats.TotalTimeFraction(ds), stats.CumulativeTotalTimeFraction(ds)
	if err := checkCurves(pmf, cdf); err != nil {
		t.Fatalf("valid curves rejected: %v", err)
	}
	clone := func(ps []stats.Point) []stats.Point { return append([]stats.Point(nil), ps...) }
	short := clone(pmf)
	short[0].Y *= 0.5
	if checkCurves(short, cdf) == nil {
		t.Error("PMF summing below 1 accepted")
	}
	dip := clone(cdf)
	dip[1].Y = dip[0].Y - 0.1
	if checkCurves(pmf, dip) == nil {
		t.Error("decreasing CDF accepted")
	}
	low := clone(cdf)
	low[len(low)-1].Y = 0.9
	if checkCurves(pmf, low) == nil {
		t.Error("CDF ending below 1 accepted")
	}
}

func TestCheckReport(t *testing.T) {
	gc := cdn.DefaultGenConfig(3)
	gc.Scale, gc.Days, gc.Workers = 0.02, 30, 1
	ds, err := cdn.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdn.BuildReport(ds.Assocs, nil, experiments.MobileDegreeThreshold, nil).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := checkReport(buf.Bytes(), ds.Assocs); err != nil {
		t.Fatalf("oracle's own rendering rejected: %v", err)
	}
	bad := bytes.Replace(buf.Bytes(), []byte("episodes: "), []byte("episodes: 1"), 1)
	if checkReport(bad, ds.Assocs) == nil {
		t.Error("corrupted report accepted")
	}
}

func TestCheckCard(t *testing.T) {
	const rse = 0.01
	if err := checkCard("c", 1000, rse, 1000, true); err != nil {
		t.Errorf("exact estimate rejected: %v", err)
	}
	if err := checkCard("c", 5000, rse, 1000, false); err != nil {
		t.Errorf("superset estimate rejected: %v", err)
	}
	if checkCard("c", 960, rse, 1000, false) == nil {
		t.Error("estimate below (1-3·RSE)·exact accepted")
	}
	if checkCard("c", 1040, rse, 1000, true) == nil {
		t.Error("estimate above (1+3·RSE)·exact of an exact set accepted")
	}
}

// daemonFixture is a small churned daemon's API state.
func daemonFixture(t *testing.T) *daemonState {
	t.Helper()
	d, err := newDaemon(2000, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Churn(25); err != nil {
		t.Fatal(err)
	}
	st, err := readState(d.Handler())
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkState(st); len(errs) != 0 {
		t.Fatalf("healthy daemon rejected: %v", errs)
	}
	return st
}

func TestCheckStateCorruptions(t *testing.T) {
	base := daemonFixture(t)
	mutate := func(f func(st *daemonState)) *daemonState {
		st := *base
		st.Snapshot = append([]stripe.Session(nil), base.Snapshot...)
		f(&st)
		return &st
	}
	rehash := func(st *daemonState) {
		st.Stats.TableHash = hashOf(st.Snapshot)
	}
	cases := map[string]struct {
		st   *daemonState
		want string
	}{
		"table hash": {mutate(func(st *daemonState) { st.Stats.TableHash = "0000000000000000" }), "table_hash"},
		"event sum":  {mutate(func(st *daemonState) { st.Stats.Events.Events++ }), "per-kind"},
		"shared IPv4": {mutate(func(st *daemonState) {
			st.Snapshot[1].Addr4 = st.Snapshot[0].Addr4
			rehash(st)
		}), "share"},
		"shared IPv6 prefix": {mutate(func(st *daemonState) {
			st.Snapshot[1].Pfx6Hi, st.Snapshot[1].Pfx6Len = st.Snapshot[0].Pfx6Hi, st.Snapshot[0].Pfx6Len
			rehash(st)
		}), "share an IPv6"},
		"IPv4 outside pool": {mutate(func(st *daemonState) {
			st.Snapshot[0].Addr4 = 0xC0000201 // 192.0.2.1
			rehash(st)
		}), "outside"},
		"low cardinality": {mutate(func(st *daemonState) { st.Pfx24 = bng.CardAnswer{Estimate: 1, RSE: st.Pfx24.RSE} }), "pfx24"},
		"session count":   {mutate(func(st *daemonState) { st.Stats.ActiveSessions++ }), "active_sessions"},
	}
	for name, c := range cases {
		errs := checkState(c.st)
		found := false
		for _, err := range errs {
			found = found || strings.Contains(err.Error(), c.want)
		}
		if !found {
			t.Errorf("%s: want an error mentioning %q, got %v", name, c.want, errs)
		}
	}
}

func hashOf(snap []stripe.Session) string {
	return fmt.Sprintf("%016x", stripe.Hash(snap))
}

func TestFailedReadsCounted(t *testing.T) {
	d, err := newDaemon(500, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apiGet(d.Handler(), "/no-such-endpoint", nil); err == nil {
		t.Error("GET of a missing endpoint accepted")
	}
	if getter(d.Handler(), "missing", "/no-such-endpoint").do() {
		t.Error("client read of a missing endpoint counted as a success")
	}
	for _, op := range append(standbyPoll(d.Handler()), watchPoll(d.Handler())...) {
		if !op.do() {
			t.Errorf("client read %s failed", op.Name)
		}
	}
	ok := readOp{"ok", func() bool { return true }}
	bad := readOp{"bad", func() bool { return false }}
	rd := newReader(0, []poll{{ok, bad}, {ok}}, nil)
	rd.run(nil, 10)
	if len(rd.LatMS) != 15 || rd.Failed != 5 || len(rd.LagMS) != 10 {
		t.Errorf("reader sent %d reads in %d polls with %d failures, want 15, 10 and 5", len(rd.LatMS), len(rd.LagMS), rd.Failed)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "a", Start: 3, End: 6},
		{ID: 4, Parent: 3, Name: "b", Start: 4, End: 5},
	}
	l := tr.byName()
	for name, want := range map[string]float64{"root": 5, "a": 3 + 2, "b": 1} {
		if got := l.self(name); math.Abs(got-want) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if l.self("absent") != 0 {
		t.Error("absent layer has a self time")
	}
}

func TestResultLine(t *testing.T) {
	out := &outcome{Attempted: 3, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		out.Metrics[d.Name] = 1.5
	}
	line, err := resultLine(out, false)
	if err != nil || !strings.Contains(line, `"correct":true`) || !strings.Contains(line, `"setup_s":{"value":1.5,"unit":"s"}`) {
		t.Fatalf("resultLine = %s, %v", line, err)
	}
	delete(out.Metrics, "wall_s")
	if _, err := resultLine(out, false); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
	out.Problems = []string{"x"}
	if line, err := resultLine(&outcome{Attempted: 1, Problems: []string{"x"}}, true); err != nil || !strings.Contains(line, `"correct":false`) {
		t.Errorf("traced resultLine with a failed check = %s, %v", line, err)
	}
}
