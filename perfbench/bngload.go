package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"dynamips/internal/bng"
	"dynamips/internal/bng/stripe"
	"dynamips/internal/netutil"
	"dynamips/internal/sketch"
)

// newDaemon is the bng workloads' set-up: bng.New at the built-in
// three-group config plus the attach hour, with one worker.
func newDaemon(subs int, seed int64, roundHours int64) (*bng.Daemon, error) {
	d, err := bng.New(bng.DefaultConfig(subs, uint64(seed)), bng.Options{Workers: 1, RoundHours: roundHours})
	if err != nil {
		return nil, err
	}
	return d, d.Churn(1)
}

// setUpDaemon builds the daemon r.setups() times and keeps the last;
// it returns the median set-up time.
func setUpDaemon(r run, subs int, roundHours int64, out *outcome) (*bng.Daemon, float64, error) {
	var d *bng.Daemon
	var setup []float64
	for i := 0; i < r.setups(); i++ {
		d = nil
		runtime.GC()
		out.Attempted++
		m := startMeter()
		var err error
		d, err = newDaemon(subs, r.Seed, roundHours)
		setup = append(setup, m.done().Time)
		if err != nil {
			return nil, 0, err
		}
	}
	return d, median(setup), nil
}

// churn advances d by hours and reports the cost and the engine events
// processed. Every round inside is one attempted operation.
func churn(d *bng.Daemon, hours, roundHours int64, out *outcome) (cost, float64, error) {
	ev0 := d.Stats().Events.Events
	m := startMeter()
	err := d.Churn(d.Hours() + hours)
	c := m.done()
	out.Attempted += (hours + roundHours - 1) / roundHours
	return c, float64(d.Stats().Events.Events - ev0), err
}

// The daemon's HTTP clients in this repository, with their default
// intervals (cmd/dynamips): a warm standby (`serve-bng -standby`) polls
// /ha every -poll (1 s); once it has replayed to the active's virtual
// hour, which at one-hour rounds is every poll, it pulls /snapshot
// straight after. `dynamips watch -bng` polls /sketch every -interval
// (2 s). No client reads /stats, the point queries or /sessions pages
// while the daemon runs; the traced run times those as probes only.
const (
	standbyInterval = time.Second
	watchInterval   = 2 * time.Second
)

// getter returns a read of path through the daemon's in-process
// handler. The body is counted and dropped, as a server streams it to
// its socket, so the read's cost is the daemon's, not a buffer's.
func getter(h http.Handler, name, path string) readOp {
	return readOp{name, func() bool {
		w := &discardWriter{header: make(http.Header), code: http.StatusOK}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.code == http.StatusOK && w.n > 0
	}}
}

// discardWriter is an http.ResponseWriter that keeps the status code
// and the body's length only.
type discardWriter struct {
	header http.Header
	code   int
	wrote  bool
	n      int64
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += int64(len(p))
	return len(p), nil
}

// standbyPoll is one tick of a warm standby: /ha, then /snapshot.
func standbyPoll(h http.Handler) poll {
	return poll{getter(h, "bng.http_ha", "/ha"), getter(h, "bng.http_snapshot", "/snapshot")}
}

// watchPoll is one tick of `dynamips watch -bng`.
func watchPoll(h http.Handler) poll {
	return poll{getter(h, "bng.http_sketch", "/sketch")}
}

// clientReaders are the two clients as concurrent polling readers, each
// at its default interval divided by speedup.
func clientReaders(d *bng.Daemon, speedup float64, tr *tracer) []*reader {
	h := d.Handler()
	every := func(iv time.Duration) time.Duration { return time.Duration(float64(iv) / speedup) }
	return []*reader{
		newReader(every(standbyInterval), []poll{standbyPoll(h)}, tr),
		newReader(every(watchInterval), []poll{watchPoll(h)}, tr),
	}
}

// probePolls are reads no client of the daemon sends: /stats, the
// /sketch point queries and /sessions pages walking the slot space with
// a fixed stride. The traced run times them for the per-layer figures.
func probePolls(d *bng.Daemon) []poll {
	h := d.Handler()
	cfg := d.Config()
	pages := (cfg.Subscribers() + bng.DefaultPageLimit - 1) / bng.DefaultPageLimit
	page := 0
	sessions := readOp{"bng.http_sessions", func() bool {
		page = (page + 7919) % pages
		return getter(h, "", fmt.Sprintf("/sessions?offset=%d&limit=%d", page*bng.DefaultPageLimit, bng.DefaultPageLimit)).do()
	}}
	return []poll{
		{getter(h, "bng.http_stats", "/stats")},
		{getter(h, "bng.http_query", "/sketch?op=quantile&name="+bng.SkDurSession+"&p=0.5")},
		{getter(h, "bng.http_query", "/sketch?op=card&name="+bng.SkPfx24)},
		{getter(h, "bng.http_query", "/sketch?op=topk&name="+bng.SkChurn24+"&k=10")},
		{sessions},
	}
}

const (
	// churnRoundHours is bng-churn's round length.
	churnRoundHours = 24
	// Nominal pass lengths, which set the pass count: one bng-churn
	// round, and one bng-serve block, which takes about 5 s; 4 s makes
	// four blocks in a 15 s run.
	churnPassSeconds = 12
	servePassSeconds = 4
)

// runBNGChurn: 10⁶ subscribers in 24-hour rounds with no reads; one
// timed pass is one round. After each round the daemon's two clients
// poll the idle daemon for a fixed time; after the last, the checks
// run.
func runBNGChurn(r run) (*outcome, error) {
	out := &outcome{}
	const hours = churnRoundHours
	d, setup, err := setUpDaemon(r, r.Size.ChurnSubs, hours, out)
	if err != nil {
		return nil, err
	}
	if r.Trace {
		return traceBNGChurn(r, d, out)
	}
	var cs costs
	var events []float64
	var reads [][]float64
	for i := 0; i < r.passes(churnPassSeconds); i++ {
		c, ev, err := churn(d, hours, hours, out)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
		events = append(events, ev/c.Time)
		reads = append(reads, pollIdle(d, r.Size.ChurnReadTime, r.Size.ClientSpeedup, out))
	}
	rss := peakRSSMB()
	checkDaemon(d, out)
	out.setEndToEnd(setup, cs, events, reads, rss)
	return out, nil
}

// runBNGServe: serve-bng's defaults (10⁵ subscribers, 1-hour rounds)
// with the daemon's two clients polling beside the churn. One timed
// pass is ServeBlockRounds rounds; the clients start with each pass and
// stop with it, so each pass's reads are one block.
func runBNGServe(r run) (*outcome, error) {
	out := &outcome{}
	d, setup, err := setUpDaemon(r, r.Size.ServeSubs, 1, out)
	if err != nil {
		return nil, err
	}
	if err := warmUp(r, d, out); err != nil {
		return nil, err
	}
	if r.Trace {
		return traceBNGServe(r, d, out)
	}
	block := int64(r.Size.ServeBlockRounds)
	var cs costs
	var events []float64
	var reads [][]float64
	for i := 0; i < r.passes(servePassSeconds); i++ {
		rds := clientReaders(d, r.Size.ClientSpeedup, nil)
		var c cost
		var ev float64
		err := withReaders(rds, out, func() (err error) {
			c, ev, err = churn(d, block, 1, out)
			return err
		})
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
		events = append(events, ev/c.Time)
		reads = append(reads, latencies(rds))
	}
	rss := peakRSSMB()
	checkDaemon(d, out)
	out.setEndToEnd(setup, cs, events, reads, rss)
	return out, nil
}

// apiGet fetches path from the daemon's API and decodes JSON into v
// (or returns the raw body when v is nil).
func apiGet(h http.Handler, path string, v any) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	body := rec.Body.Bytes()
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return body, nil
}

// daemonState is everything the bng checks read, all through the API.
type daemonState struct {
	Stats        bng.StatsView
	Pools        []bng.PoolStats
	Snapshot     []stripe.Session
	Pfx24, Pfx64 bng.CardAnswer
}

func readState(h http.Handler) (*daemonState, error) {
	st := &daemonState{}
	if _, err := apiGet(h, "/stats", &st.Stats); err != nil {
		return nil, err
	}
	var pools bng.PoolsPayload
	if _, err := apiGet(h, "/pools", &pools); err != nil {
		return nil, err
	}
	st.Pools = pools.Pools
	raw, err := apiGet(h, "/snapshot", nil)
	if err != nil {
		return nil, err
	}
	if st.Snapshot, err = stripe.DecodeSnapshot(bytes.NewReader(raw)); err != nil {
		return nil, fmt.Errorf("decoding /snapshot: %w", err)
	}
	if _, err := apiGet(h, "/sketch?op=card&name="+bng.SkPfx24, &st.Pfx24); err != nil {
		return nil, err
	}
	if _, err := apiGet(h, "/sketch?op=card&name="+bng.SkPfx64, &st.Pfx64); err != nil {
		return nil, err
	}
	return st, nil
}

func checkDaemon(d *bng.Daemon, out *outcome) {
	st, err := readState(d.Handler())
	if err != nil {
		out.fail("bng: %v", err)
		return
	}
	for _, err := range checkState(st) {
		out.fail("bng: %v", err)
	}
}

// checkState runs the bng output checks on one consistent state.
func checkState(st *daemonState) []error {
	var errs []error
	v := st.Stats
	if want := fmt.Sprintf("%016x", stripe.Hash(st.Snapshot)); v.TableHash != want {
		errs = append(errs, fmt.Errorf("/stats table_hash %s, hash of /snapshot %s", v.TableHash, want))
	}
	e := v.Events
	if sum := e.Attaches + e.Renews + e.Renumbers + e.Flaps + e.Reattach + e.CoAs + e.Disconnects + e.RelayOutages; e.Events != sum {
		errs = append(errs, fmt.Errorf("events %d, per-kind counters sum to %d", e.Events, sum))
	}
	if v.ActiveSessions != len(st.Snapshot) {
		errs = append(errs, fmt.Errorf("/stats active_sessions %d, /snapshot holds %d", v.ActiveSessions, len(st.Snapshot)))
	}
	type pool struct {
		net  netip.Prefix
		bits int // delegated length
	}
	pool4 := make(map[string]pool)
	pool6 := make(map[string]pool)
	for _, p := range st.Pools {
		net, err := netip.ParsePrefix(p.Network)
		if err != nil {
			errs = append(errs, fmt.Errorf("/pools: %w", err))
			continue
		}
		if p.Family == 4 {
			pool4[p.Group] = pool{net, 32}
		} else {
			pool6[p.Group] = pool{net, p.DelegatedLen}
		}
	}
	type pfx6 struct {
		hi  uint64
		len uint8
	}
	addrs := make(map[uint32]uint64, len(st.Snapshot))
	pfxs := make(map[pfx6]uint64, len(st.Snapshot))
	s24 := make(map[uint32]struct{})
	s64 := make(map[uint64]struct{})
	const maxReports = 5
	bad := 0
	report := func(err error) {
		if bad < maxReports {
			errs = append(errs, err)
		}
		bad++
	}
	for _, s := range st.Snapshot {
		gi := int(s.Key >> 32)
		if gi >= len(v.Groups) {
			report(fmt.Errorf("session %#x: no group %d", s.Key, gi))
			continue
		}
		group := v.Groups[gi].Name
		if s.Addr4 != 0 {
			if other, dup := addrs[s.Addr4]; dup {
				report(fmt.Errorf("sessions %#x and %#x share %v", other, s.Key, netutil.AddrFromU32(s.Addr4)))
			}
			addrs[s.Addr4] = s.Key
			s24[s.Addr4>>8] = struct{}{}
			if p, ok := pool4[group]; !ok || !p.net.Contains(netutil.AddrFromU32(s.Addr4)) {
				report(fmt.Errorf("session %#x: %v outside group %s's IPv4 pool", s.Key, netutil.AddrFromU32(s.Addr4), group))
			}
		}
		if s.Pfx6Len != 0 {
			k := pfx6{s.Pfx6Hi, s.Pfx6Len}
			if other, dup := pfxs[k]; dup {
				report(fmt.Errorf("sessions %#x and %#x share an IPv6 prefix", other, s.Key))
			}
			pfxs[k] = s.Key
			s64[s.Pfx6Hi] = struct{}{}
			pfx := netip.PrefixFrom(netutil.AddrFrom128(s.Pfx6Hi, 0), int(s.Pfx6Len))
			if p, ok := pool6[group]; !ok || pfx.Bits() != p.bits || !p.net.Contains(pfx.Addr()) {
				report(fmt.Errorf("session %#x: %v outside group %s's IPv6 pool", s.Key, pfx, group))
			}
		}
	}
	if bad > maxReports {
		errs = append(errs, fmt.Errorf("%d more session faults", bad-maxReports))
	}
	// The cardinality sketches count every prefix ever assigned, a
	// superset of the prefixes held now.
	if err := checkCard("pfx24", st.Pfx24.Estimate, st.Pfx24.RSE, len(s24), false); err != nil {
		errs = append(errs, err)
	}
	if err := checkCard("pfx64", st.Pfx64.Estimate, st.Pfx64.RSE, len(s64), false); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// views is the daemon's published state, compared between the
// untraced and the traced run.
func views(d *bng.Daemon) []byte {
	var buf bytes.Buffer
	_ = d.WriteStats(&buf)
	_ = d.WriteSketchJSON(&buf)
	return buf.Bytes()
}

// traceBNGChurn runs one untraced round for reference, then a fresh
// daemon's same round under a span, then times the stripe table and
// the protocol servers the engine drives, at the workload's size.
func traceBNGChurn(r run, d *bng.Daemon, out *outcome) (*outcome, error) {
	const hours = churnRoundHours
	ref, _, err := churn(d, hours, hours, out)
	if err != nil {
		return nil, err
	}
	refViews := views(d)
	d = nil
	runtime.GC()
	tr := newTracer()
	out.Attempted++
	id := tr.begin("bng.setup", 0)
	d, err = newDaemon(r.Size.ChurnSubs, r.Seed, hours)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.beginAlloc("bng.round", 0)
	c, _, err := churn(d, hours, hours, out)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(views(d), refViews) {
		out.fail("bng-churn: traced daemon published different /stats or /sketch views")
	}
	checkDaemon(d, out)
	snap := d.Table().SnapshotSorted()
	put, get, err := stripeOps(snap, d.Config().ShardBits, tr)
	if err != nil {
		out.fail("bng-churn: %v", err)
	}
	h4, h6, hr, err := protocolOps(r.Size.Handles, tr)
	if err != nil {
		out.fail("bng-churn: %v", err)
	}
	l := tr.byName()
	out.tr = tr
	out.Untraced = costFigures(ref)
	out.Traced = costFigures(c)
	out.Metrics = map[string]float64{
		"bng.round_ms":       l.p50("bng.round"),
		"bng.round_alloc_mb": l.alloc("bng.round"),
		"stripe.put_ns":      put,
		"stripe.get_ns":      get,
		"dhcp4.handle_ns":    h4,
		"dhcp6.handle_ns":    h6,
		"radius.handle_ns":   hr,
	}
	return out, nil
}

// traceBNGServe runs one untraced block with the clients for
// reference, then a fresh daemon's same block round by round under
// spans, timing the round barrier's parts on the live state after every
// round. Then it times the reads no client sends, as probes on the
// idle daemon.
func traceBNGServe(r run, d *bng.Daemon, out *outcome) (*outcome, error) {
	block := int64(r.Size.ServeBlockRounds)
	ref, err := serveBlock(r, d, nil, out)
	if err != nil {
		return nil, err
	}
	refViews := views(d)
	d = nil
	runtime.GC()
	tr := newTracer()
	out.Attempted++
	id := tr.begin("bng.setup", 0)
	d, err = newDaemon(r.Size.ServeSubs, r.Seed, 1)
	tr.end(id)
	if err == nil {
		err = warmUp(r, d, out)
	}
	if err != nil {
		return nil, err
	}
	traced, err := serveBlock(r, d, tr, out)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(views(d), refViews) {
		out.fail("bng-serve: traced daemon published different /stats or /sketch views after %d rounds", block)
	}
	checkDaemon(d, out)
	probes := newReader(0, probePolls(d), tr)
	probes.run(nil, r.Size.Probes)
	out.Attempted += int64(len(probes.LatMS))
	out.Failed += probes.Failed
	l := tr.byName()
	out.tr = tr
	out.Untraced = costFigures(ref.Cost)
	out.Untraced["read_p50_ms"] = quantile(ref.LatMS, 0.5)
	out.Traced = costFigures(traced.Cost)
	out.Traced["read_p50_ms"] = quantile(traced.LatMS, 0.5)
	out.Metrics = map[string]float64{
		"bng.round_ms":         l.p50("bng.round"),
		"stripe.snapshot_ms":   l.p50("stripe.snapshot"),
		"stripe.hash_ms":       l.p50("stripe.hash"),
		"sketch.merge_ms":      l.p50("sketch.merge"),
		"sketch.encode_ms":     l.p50("sketch.encode"),
		"bng.stats_encode_ms":  l.p50("bng.stats_encode"),
		"bng.http_stats_ms":    l.p50("bng.http_stats"),
		"bng.http_ha_ms":       l.p50("bng.http_ha"),
		"bng.http_snapshot_ms": l.p50("bng.http_snapshot"),
		"bng.http_sketch_ms":   l.p50("bng.http_sketch"),
		"bng.http_query_ms":    l.p50("bng.http_query"),
		"bng.http_sessions_ms": l.p50("bng.http_sessions"),
		"bng.reader_lag_ms":    quantile(traced.LagMS, 0.99),
	}
	return out, nil
}

// warmUp churns bng-serve's daemon, untimed and without readers, until
// its state has the size it keeps: over the first virtual day the
// sketch summaries grow, and a round costs about a fifth less than it
// does from the second day on.
func warmUp(r run, d *bng.Daemon, out *outcome) error {
	_, _, err := churn(d, int64(r.Size.ServeWarmRounds), 1, out)
	return err
}

// servedBlock is one bng-serve block's figures.
type servedBlock struct {
	Cost         cost
	LatMS, LagMS []float64
}

// serveBlock churns one block of 1-hour rounds beside the clients.
// With a tracer, every round is its own span and is followed by the
// barrier parts, timed on the live state.
func serveBlock(r run, d *bng.Daemon, tr *tracer, out *outcome) (*servedBlock, error) {
	rds := clientReaders(d, r.Size.ClientSpeedup, tr)
	var c cost
	err := withReaders(rds, out, func() error {
		m := startMeter()
		defer func() { c = m.done() }()
		for k := 0; k < r.Size.ServeBlockRounds; k++ {
			id := tr.beginAlloc("bng.round", 0)
			_, _, err := churn(d, 1, 1, out)
			tr.end(id)
			if err != nil {
				return err
			}
			if tr != nil {
				if err := barrierParts(d, tr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &servedBlock{Cost: c, LatMS: latencies(rds)}
	for _, rd := range rds {
		b.LagMS = append(b.LagMS, rd.LagMS...)
	}
	return b, nil
}

// withReaders runs fn while every reader polls from its own goroutine,
// then stops the readers, waits for them and counts their reads.
func withReaders(rds []*reader, out *outcome, fn func() error) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, rd := range rds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.run(stop, 0)
		}()
	}
	err := fn()
	close(stop)
	wg.Wait()
	for _, rd := range rds {
		out.Attempted += int64(len(rd.LatMS))
		out.Failed += rd.Failed
	}
	return err
}

// pollIdle lets the daemon's clients poll d, which is not churning, for
// dur, after collecting the garbage the timed pass left. It returns
// their latencies.
func pollIdle(d *bng.Daemon, dur time.Duration, speedup float64, out *outcome) []float64 {
	runtime.GC()
	rds := clientReaders(d, speedup, nil)
	_ = withReaders(rds, out, func() error {
		time.Sleep(dur)
		return nil
	})
	return latencies(rds)
}

// latencies is every reader's read latencies, pooled.
func latencies(rds []*reader) []float64 {
	var lat []float64
	for _, rd := range rds {
		lat = append(lat, rd.LatMS...)
	}
	return lat
}

// barrierParts repeats what Daemon's round barrier does, part by part,
// on the daemon's current state: snapshot and hash the table, merge
// sketches, encode the merged set, and render /stats and /sketch as
// canonical JSON. The barrier merges one partial per stripe; the
// partials are not public, so the merge is modelled on the published
// set: its fixed-size sketches (cardinality registers and quantile
// buckets, the same size in every partial) are merged once per stripe,
// and its heavy-hitter summaries, which hold the union of all stripes'
// entries, once.
func barrierParts(d *bng.Daemon, tr *tracer) error {
	id := tr.begin("stripe.snapshot", 0)
	snap := d.Table().SnapshotSorted()
	tr.end(id)
	id = tr.begin("stripe.hash", 0)
	_ = stripe.Hash(snap)
	tr.end(id)
	published, err := sketch.DecodeSet(d.SketchBinary())
	if err != nil {
		return fmt.Errorf("decoding /sketch binary: %w", err)
	}
	perStripe, once, err := splitSet(published)
	if err != nil {
		return err
	}
	accStripe, err := emptyLike(perStripe)
	if err != nil {
		return err
	}
	accOnce, err := emptyLike(once)
	if err != nil {
		return err
	}
	id = tr.begin("sketch.merge", 0)
	for i := 0; i < d.Table().Shards() && err == nil; i++ {
		err = accStripe.Merge(perStripe)
	}
	if err == nil {
		err = accOnce.Merge(once)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("sketch.encode", 0)
	_ = published.Encode()
	tr.end(id)
	id = tr.begin("bng.stats_encode", 0)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(d.Stats())
	if err == nil {
		err = enc.Encode(d.Sketch())
	}
	tr.end(id)
	return err
}

// splitSet separates s's top-k summaries from its other sketches. The
// two sets share s's sketches; they are only read.
func splitSet(s *sketch.Set) (fixed, topk *sketch.Set, err error) {
	fixed, topk = sketch.NewSet(), sketch.NewSet()
	for _, name := range s.Names() {
		switch s.KindOf(name) {
		case sketch.KindTopK:
			err = topk.Put(name, s.TopK(name))
		case sketch.KindQuantile:
			err = fixed.Put(name, s.Quantile(name))
		case sketch.KindCard:
			err = fixed.Put(name, s.Card(name))
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return fixed, topk, nil
}

// emptyLike returns an empty set with s's schema.
func emptyLike(s *sketch.Set) (*sketch.Set, error) {
	out := sketch.NewSet()
	for _, name := range s.Names() {
		var sk sketch.Sketch
		switch s.KindOf(name) {
		case sketch.KindQuantile:
			sk = sketch.NewQuantile(s.Quantile(name).Alpha())
		case sketch.KindTopK:
			sk = sketch.NewTopK(s.TopK(name).K())
		case sketch.KindCard:
			c := s.Card(name)
			sk = sketch.NewCard(c.P(), c.Seed())
		default:
			return nil, fmt.Errorf("sketch %s: unknown kind", name)
		}
		if err := out.Put(name, sk); err != nil {
			return nil, err
		}
	}
	return out, nil
}
