package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

const (
	writeToggles = 64  // bridges the writer toggles; half start present
	closedPool   = 48  // nodes whose closed fact the writer toggles; half start closed
	writeRound   = 10  // writes per round: 9 bridge toggles, then 1 closed toggle
	readerRate   = 100 // open-loop reads per second beside the writer
	// traceWrites bounds the in-process replay of the write stream.
	traceWriteCap = 20 * writeRound
)

// writeModel is the benchmark's own copy of the serve-write EDB.
type writeModel struct {
	hops   map[[2]string]bool
	closed map[string]bool
}

func (m *writeModel) clone() *writeModel {
	c := &writeModel{hops: map[[2]string]bool{}, closed: map[string]bool{}}
	for k, v := range m.hops {
		c.hops[k] = v
	}
	for k, v := range m.closed {
		c.closed[k] = v
	}
	return c
}

func (m *writeModel) has(op writeOp) bool {
	if op.pred == "closed" {
		return m.closed[op.args[0]]
	}
	return m.hops[[2]string{op.args[0], op.args[1]}]
}

func (m *writeModel) apply(op writeOp) {
	if op.pred == "closed" {
		m.closed[op.args[0]] = op.add
		if !op.add {
			delete(m.closed, op.args[0])
		}
		return
	}
	k := [2]string{op.args[0], op.args[1]}
	m.hops[k] = op.add
	if !op.add {
		delete(m.hops, k)
	}
}

func (m *writeModel) source() string {
	fs := hopFacts(m.hops)
	for n := range m.closed {
		fs = append(fs, fact{"closed", []string{n}})
	}
	sortFacts(fs)
	return source(reachRules+visibleRule, fs)
}

// oracle is every relation the served state must hold, from the model.
func (m *writeModel) oracle() map[string]digest {
	cl := closure(edgesOf(m.hops))
	hops, closed := rel{}, rel{}
	for e := range m.hops {
		hops.add(e[0], e[1])
	}
	for n := range m.closed {
		closed.add(n)
	}
	return map[string]digest{
		"hop(X, Y)":     hops.digest(),
		"closed(X)":     closed.digest(),
		"reach(X, Y)":   closureRel(cl).digest(),
		"visible(X, Y)": visibleRel(cl, m.closed).digest(),
	}
}

// checkState fetches each relation in full and compares it with the
// oracle over the model.
func (e *env) checkState(c *client, when string, m *writeModel) {
	for goal, want := range m.oracle() {
		d, lat, err := c.fetchAll("w", goal)
		e.attempted += len(lat)
		if err != nil {
			e.fail(err)
			continue
		}
		e.check(checkDigest(when+": "+goal, d, want))
	}
}

func (op writeOp) fact() string { return fact{op.pred, op.args}.String() }

// writeStream is the writer's seeded sequence of toggles over the model.
type writeStream struct {
	rng     *rand.Rand
	toggles [][2]string
	pool    []string
	n       int
}

func (s *writeStream) next(m *writeModel) writeOp {
	s.n++
	var op writeOp
	if s.n%writeRound == 0 {
		op = writeOp{pred: "closed", args: []string{s.pool[s.rng.Intn(len(s.pool))]}}
	} else {
		b := s.toggles[s.rng.Intn(len(s.toggles))]
		op = writeOp{pred: "hop", args: []string{b[0], b[1]}}
	}
	op.add = !m.has(op)
	return op
}

// serveWrite: one closed-loop writer toggling bridges (and, one write
// in ten, a closed node, which forces a full recompute) against a
// durable dlogd with fsync on, beside one open-loop reader.
func serveWrite(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	g := genGraph(rng, graphChains, graphLength, graphGroup, graphFixed, writeToggles)
	nodes := g.nodes()
	var pool []string
	for _, i := range rng.Perm(len(nodes))[:closedPool] {
		pool = append(pool, nodes[i])
	}
	model := &writeModel{hops: g.initialHops(), closed: map[string]bool{}}
	for _, n := range pool[:closedPool/2] {
		model.closed[n] = true
	}
	initial := model.clone()
	src := model.source()

	var c *client
	var dataDir string
	d, err := e.measureSetup(func(i int) (*daemon, error) {
		dir, err := e.spawnDir(fmt.Sprintf("data%d", i))
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e.dlogd, "-data-dir", dir, "-fsync=true")
		if err != nil {
			return nil, err
		}
		c = newClient(d.base)
		resp, err := c.load("w", loadReq{Program: src, Plan: "auto"})
		if err != nil {
			d.kill()
			return nil, err
		}
		if i == 0 {
			e.notef("serve-write: %d EDB, %d IDB tuples at load", resp.EDBTuples, resp.IDBTuples)
		}
		dataDir = dir
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.kill() // on early returns; a no-op once d has exited
	before := e.scrapeIfTraced(c)
	st0, err := c.stats("w")
	if err != nil {
		return err
	}
	if st0.Durability == nil {
		return errors.New("serve-write: session is not durable")
	}
	seq0 := st0.Durability.Seq

	// The writer owns model, ops and wlat until done is closed.
	stream := &writeStream{rng: rand.New(rand.NewSource(e.seed*7919 + 1)), toggles: g.toggles, pool: pool}
	var ops []writeOp
	var wlat latencies
	var derived, probes int64
	writer, reader := &clientStats{}, &clientStats{}
	var rlat, late latencies
	var readGoals []string
	done := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		seq := seq0
		for time.Since(start) < e.seconds {
			for j := 0; j < writeRound; j++ {
				op := stream.next(model)
				req := changesReq{Dels: []string{op.fact()}}
				if op.add {
					req = changesReq{Adds: []string{op.fact()}}
				}
				writer.attempted++
				t0 := time.Now()
				var resp updateResp
				if err := c.call("POST", "/v1/sessions/w/changes", req, &resp); err != nil {
					writer.fail(fmt.Errorf("write %s: %w", op.fact(), err))
					continue
				}
				wlat = append(wlat, time.Since(t0))
				writer.done = append(writer.done, time.Since(start))
				model.apply(op)
				ops = append(ops, op)
				derived += resp.Stats.Derived
				probes += resp.Stats.Probes + resp.Stats.IndexProbes
				wantMode := "incremental"
				if op.pred == "closed" {
					wantMode = "recompute"
				}
				seq++
				if resp.Applied != 1 || resp.Ignored != 0 || resp.Mode != wantMode || resp.Seq != seq {
					writer.check(fmt.Errorf("write %s (add=%v): applied=%d ignored=%d mode=%s seq=%d, model expects applied=1 ignored=0 mode=%s seq=%d",
						op.fact(), op.add, resp.Applied, resp.Ignored, resp.Mode, resp.Seq, wantMode, seq))
					seq = resp.Seq
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		rrng := rand.New(rand.NewSource(e.seed*7919 + 2))
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * time.Second / readerRate)
			select {
			case <-done:
				return
			case <-time.After(time.Until(due)):
			}
			goal := fmt.Sprintf("visible(%s, Y)", nodes[rrng.Intn(len(nodes))])
			readGoals = append(readGoals, goal)
			late = append(late, time.Since(due))
			reader.attempted++
			if _, err := c.query("w", queryReq{Goal: goal, Limit: readPageLimit}); err != nil {
				reader.fail(err)
				continue
			}
			rlat = append(rlat, time.Since(due))
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	e.merge(writer)
	e.merge(reader)

	var after *scrape
	var st1 *sessionStats
	if e.trace {
		if after, err = c.scrapeMetrics(); err != nil {
			return err
		}
		if st1, err = c.stats("w"); err != nil {
			return err
		}
		if err := e.compileTime(c, "w"); err != nil {
			return err
		}
	}

	// Checks: the served state equals the oracle over the model, the
	// change feed replays to the model, and the model survives SIGKILL.
	e.checkState(c, "after writes", model)
	e.checkFeed(c, seq0, initial, ops, model)
	c.close()
	d.kill()
	e.e2e["peak_rss_mb"] = d.peakRSSMB()
	d2, err := startDaemon(e.dlogd, "-data-dir", dataDir, "-fsync=true")
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer d2.kill()
	c2 := newClient(d2.base)
	e.checkState(c2, "after SIGKILL and recovery", model)
	c2.close()
	d2.stop()

	e.e2e["ops_per_s"] = windowedRate(writer.done, elapsed)
	e.e2e["op_p50_ms"] = wlat.pct(0.50)
	e.e2e["op_tail_ms"] = wlat.pct(0.95)
	e.e2e["read_p50_ms"] = rlat.pct(0.50)
	e.notef("serve-write: %d writes and %d reads in %.2fs; writes %s; reads %s; reader lateness %s",
		len(wlat), len(rlat), elapsed.Seconds(), wlat.spectrum(), rlat.spectrum(), late.spectrum())

	if !e.trace {
		return nil
	}
	e.layerServe(before, after, rlat)
	e.layer["serve.reader_lateness_ms"] = late.pct(0.99)
	commit := after.since(before, "serve_commit_ns")
	wait := after.since(before, "serve_commit_wait_ns")
	fsync := after.since(before, "durable_fsync_ns")
	ckpt := after.since(before, "durable_checkpoint_ns")
	e.layer["serve.commit_p50_us"] = commit.quantile(0.5) / 1e3
	e.layer["serve.commit_wait_p50_us"] = wait.quantile(0.5) / 1e3
	e.layer["serve.write_unattributed_p50_us"] = wlat.pct(0.5)*1e3 - e.layer["serve.commit_p50_us"] - e.layer["serve.commit_wait_p50_us"]
	e.layer["durable.fsync_p50_us"] = fsync.quantile(0.5) / 1e3
	e.layer["durable.checkpoint_mean_ms"] = ckpt.mean() / 1e6
	if n := len(wlat); n > 0 {
		recomputes := st1.Recomputes - st0.Recomputes
		e.layer["serve.recompute_share"] = float64(recomputes) / float64(recomputes+st1.Incremental-st0.Incremental)
		e.layer["durable.fsyncs_per_write"] = fsync.count / float64(n)
		e.layer["durable.checkpoints_per_1k_writes"] = float64(st1.Durability.Checkpoints-st0.Durability.Checkpoints) * 1000 / float64(n)
		e.layer["durable.wal_bytes_per_write"] = float64(st1.Durability.WALBytes-st0.Durability.WALBytes) / float64(n)
		e.layer["eval.derived_per_write"] = float64(derived) / float64(n)
		e.layer["eval.probes_per_write"] = float64(probes) / float64(n)
	}
	e.notef("unattributed write: client p50 %.1f us - (commit wait p50 %.1f us + commit p50 %.1f us) = %.1f us",
		wlat.pct(0.5)*1e3, e.layer["serve.commit_wait_p50_us"], e.layer["serve.commit_p50_us"], e.layer["serve.write_unattributed_p50_us"])
	e.notef("unattributed read: client p50 %.1f us - server query p50 %.1f us = %.1f us",
		rlat.pct(0.5)*1e3, e.layer["serve.query_p50_us"], e.layer["serve.read_unattributed_p50_us"])

	// The load's bound adds one grounding per reach tuple for the
	// visible rule to the closure's semi-naive bound.
	initReach := closureRel(closure(edgesOf(initial.hops)))
	spec := loadSpec{name: "w", src: src, lookups: true,
		bound: semiNaiveBound(edgesOf(initial.hops), initReach) + float64(len(initReach))}
	if err := e.traceLoads([]loadSpec{spec}, readGoals); err != nil {
		return err
	}
	if len(ops) > traceWriteCap {
		ops = ops[:traceWriteCap]
	}
	return e.traceWrites(spec, ops)
}

// checkFeed reads the change feed back from the first sequence of the
// measured phase: the frames must be gap-free and strictly increasing,
// each must carry exactly the write acknowledged under its sequence,
// and replaying them onto the model as of the cursor must give the
// final model. Checkpoints fold the WAL, so when the phase's first
// sequence is no longer replayable the server must answer 410 naming
// the oldest cursor it still serves, and the feed is read from there.
func (e *env) checkFeed(c *client, seq0 uint64, initial *writeModel, ops []writeOp, final *writeModel) {
	if len(ops) == 0 {
		return
	}
	from := seq0
	var resp subscribeResp
	path := func(from uint64) string { return fmt.Sprintf("/v1/sessions/w/subscribe?from=%d&wait=0", from) }
	e.attempted++
	err := c.call("GET", path(from), nil, &resp)
	var he *httpError
	if errors.As(err, &he) && he.status == 410 {
		var body errorBody
		if jerr := json.Unmarshal([]byte(he.body), &body); jerr != nil || body.Error.Code != "cursor_truncated" || body.Error.OldestSeq <= from {
			e.check(fmt.Errorf("feed from %d: 410 without a later oldest_seq: %s", from, he.body))
			return
		}
		from = body.Error.OldestSeq
		e.attempted++
		err = c.call("GET", path(from), nil, &resp)
	}
	if err != nil {
		e.fail(fmt.Errorf("feed from %d: %w", from, err))
		return
	}
	last := seq0 + uint64(len(ops))
	if from > last {
		e.check(fmt.Errorf("feed: oldest replayable seq %d is past the last write %d", from, last))
		return
	}
	m := initial.clone()
	for _, op := range ops[:from-seq0] {
		m.apply(op)
	}
	want := from + 1
	for _, f := range resp.Frames {
		if f.Seq != want || f.Seq > last {
			e.check(fmt.Errorf("feed: frame seq %d, want %d of at most %d (gap, reorder or extra frame)", f.Seq, want, last))
			return
		}
		op := ops[f.Seq-seq0-1]
		adds, dels := f.Adds, f.Dels
		if !op.add {
			adds, dels = dels, adds
		}
		if len(adds) != 1 || len(dels) != 0 || squash(adds[0]) != squash(op.fact()) {
			e.check(fmt.Errorf("feed: frame %d is %v/%v, acknowledged write was %s (add=%v)", f.Seq, f.Adds, f.Dels, op.fact(), op.add))
			return
		}
		m.apply(op)
		want++
	}
	if got := want - 1; got != last {
		e.check(fmt.Errorf("feed ends at seq %d, last write was %d", got, last))
		return
	}
	if m.source() != final.source() {
		e.check(errors.New("feed: replayed state differs from the model"))
	}
}

// squash drops whitespace so facts compare independently of spacing.
func squash(s string) string { return strings.Join(strings.Fields(s), "") }
