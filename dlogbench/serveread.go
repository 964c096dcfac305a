package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Graph sizes of serve-read and serve-write. 24 chains of 50 nodes in
// pairs, with 48 fixed bridges, give 43k-51k reach tuples over the
// seeds tried; the 2,400 distinct point goals are more than twice dlogd's
// default 1,024-entry query cache. Bridging only within pairs keeps the
// closure's size, and so the work per run, steady across seeds.
const (
	graphChains = 24
	graphLength = 50
	graphGroup  = 2
	graphFixed  = 48
)

// pointGoals lists both point-goal forms for every node, with each
// goal's oracle answer: reach(n, Y) binds the source and reach(X, n)
// the target.
func pointGoals(pred string, nodes []string, answers rel) ([]string, map[string]rel) {
	fwd, rev := map[string]rel{}, map[string]rel{}
	for k := range answers {
		x, y, _ := strings.Cut(k, "\x1f")
		if fwd[x] == nil {
			fwd[x] = rel{}
		}
		if rev[y] == nil {
			rev[y] = rel{}
		}
		fwd[x][k] = struct{}{}
		rev[y][k] = struct{}{}
	}
	var goals []string
	want := map[string]rel{}
	for _, n := range nodes {
		g1, g2 := fmt.Sprintf("%s(%s, Y)", pred, n), fmt.Sprintf("%s(X, %s)", pred, n)
		goals = append(goals, g1, g2)
		want[g1], want[g2] = orEmpty(fwd[n]), orEmpty(rev[n])
	}
	return goals, want
}

func orEmpty(r rel) rel {
	if r == nil {
		return rel{}
	}
	return r
}

func edgesOf(hops map[[2]string]bool) [][2]string {
	out := make([][2]string, 0, len(hops))
	for e := range hops {
		out = append(out, e)
	}
	return out
}

// readStream is one client's seeded goal sequence: goals are drawn
// from a Zipf distribution (s = 1.1, v = 20) over a seeded permutation.
// The 100 hottest of the 2,400 goals draw about 43% of the reads and the
// 1,024 hottest about 86%, so the cache serves most reads and the tail
// misses. v = 20 flattens the very head: no single goal draws more than
// 1.4% of the reads, so which goals a seed makes hot moves little.
type readStream struct {
	goals []string
	perm  []int
	zipf  *rand.Zipf
}

func newReadStream(seed int64, goals []string) *readStream {
	rng := rand.New(rand.NewSource(seed))
	return &readStream{goals: goals, perm: rng.Perm(len(goals)),
		zipf: rand.NewZipf(rng, 1.1, 20, uint64(len(goals)-1))}
}

func (s *readStream) next() string { return s.goals[s.perm[s.zipf.Uint64()]] }

// clientStats is what one load-generator goroutine measured.
type clientStats struct {
	lat       latencies
	done      []time.Duration // completion offsets from the phase start
	attempted int
	failed    int
	firstErr  error
	checkErrs []error
}

func (cs *clientStats) fail(err error) {
	cs.failed++
	if cs.firstErr == nil {
		cs.firstErr = err
	}
}

func (cs *clientStats) check(err error) {
	if err != nil && len(cs.checkErrs) < 10 {
		cs.checkErrs = append(cs.checkErrs, err)
	}
}

func (e *env) merge(cs *clientStats) {
	e.attempted += cs.attempted
	e.failed += cs.failed
	if e.firstFailure == nil {
		e.firstFailure = cs.firstErr
	}
	e.checkErrs = append(e.checkErrs, cs.checkErrs...)
}

const (
	readClients   = 2
	readRound     = 200 // point reads per client per round
	readPageLimit = 100
)

// serveRead: two closed-loop clients issue skewed point queries against
// a static graph. No engine or commit work runs while it measures.
func serveRead(e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	g := genGraph(rng, graphChains, graphLength, graphGroup, graphFixed, 0)
	hops := g.initialHops()
	src := source(reachRules, hopFacts(hops))
	edges := edgesOf(hops)
	reach := closureRel(closure(edges))
	goals, want := pointGoals("reach", g.nodes(), reach)

	var c *client
	d, err := e.measureSetup(func(i int) (*daemon, error) {
		d, err := startDaemon(e.dlogd)
		if err != nil {
			return nil, err
		}
		c = newClient(d.base)
		resp, err := c.load("g", loadReq{Program: src, Plan: "auto"})
		if err != nil {
			d.kill()
			return nil, err
		}
		if i == 0 {
			e.notef("serve-read: %d EDB, %d IDB tuples; %d distinct goals", resp.EDBTuples, resp.IDBTuples, len(goals))
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.kill() // on early returns; a no-op once d has exited
	before := e.scrapeIfTraced(c)

	streams := make([]*readStream, readClients)
	for i := range streams {
		streams[i] = newReadStream(e.seed*1000+int64(i), goals)
	}
	stats := make([]*clientStats, readClients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		cs := &clientStats{}
		stats[i] = cs
		wg.Add(1)
		go func(s *readStream) {
			defer wg.Done()
			for time.Since(start) < e.seconds {
				for j := 0; j < readRound; j++ {
					goal := s.next()
					cs.attempted++
					t0 := time.Now()
					resp, err := c.query("g", queryReq{Goal: goal, Limit: readPageLimit})
					if err != nil {
						cs.fail(err)
						continue
					}
					cs.lat = append(cs.lat, time.Since(t0))
					cs.done = append(cs.done, time.Since(start))
					cs.check(checkPage(goal, want[goal], resp.Total, resp.Tuples))
				}
			}
		}(streams[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var lat latencies
	var done []time.Duration
	for _, cs := range stats {
		e.merge(cs)
		lat = append(lat, cs.lat...)
		done = append(done, cs.done...)
	}

	var after *scrape
	if e.trace {
		if after, err = c.scrapeMetrics(); err != nil {
			return err
		}
		if err := e.compileTime(c, "g"); err != nil {
			return err
		}
	}
	c.close()
	d.stop()

	e.e2e["ops_per_s"] = windowedRate(done, elapsed)
	e.e2e["op_p50_ms"] = lat.pct(0.50)
	e.e2e["op_tail_ms"] = lat.pct(0.90)
	e.e2e["read_p50_ms"] = e.e2e["op_p50_ms"]
	e.e2e["peak_rss_mb"] = d.peakRSSMB()
	e.notef("serve-read: %d reads in %.2fs; reads %s", len(lat), elapsed.Seconds(), lat.spectrum())

	if e.trace {
		e.layerServe(before, after, lat)
		e.notef("unattributed read: client p50 %.1f us - server query p50 %.1f us = %.1f us",
			lat.pct(0.5)*1000, e.layer["serve.query_p50_us"], e.layer["serve.read_unattributed_p50_us"])
		// The replayed goal stream: the first round of every client.
		var replay []string
		for i := range streams {
			s := newReadStream(e.seed*1000+int64(i), goals)
			for j := 0; j < readRound; j++ {
				replay = append(replay, s.next())
			}
		}
		return e.traceLoads([]loadSpec{{name: "g", src: src, bound: semiNaiveBound(edges, reach), lookups: true}}, replay)
	}
	return nil
}
