package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// scenario is one program plan-load loads cold and reads back in full.
type scenario struct {
	name  string
	src   string // rules, constraints and facts
	goal  string // load-time goal that unlocks the magic-sets plan, or ""
	query string // the goal whose full answer is fetched and checked
	want  digest // the oracle's answer to query
	bound float64
}

// planScenarios builds the plan-load regimes from the seed: the routes
// program where the constraint's residue is vacuous (orig should win),
// selective (opt), and goal-bound (magic); the Example 4.1 organization;
// and a transitively closed par whose recursion is bounded.
func planScenarios(seed int64) []*scenario {
	rng := rand.New(rand.NewSource(seed))
	routes := func(name string, chains, depth, spurs int, goal string) *scenario {
		fs := routesFacts(rng, chains, depth, spurs)
		var hops [][3]string
		open := map[string]bool{}
		for _, f := range fs {
			if f.pred == "hop" {
				hops = append(hops, [3]string{f.args[0], f.args[1], f.args[2]})
			} else {
				open[f.args[0]] = true
			}
		}
		sc := &scenario{name: name, src: source(routesRules, fs), goal: goal, query: "reach(X, Y)"}
		var sources []string
		if goal != "" {
			sc.query = goal
			sources = []string{strings.TrimSuffix(strings.TrimPrefix(goal, "reach("), ", Y)")}
		}
		r := gatedReach(hops, open, sources)
		sc.want = r.digest()
		if goal == "" {
			edges := make([][2]string, len(hops))
			for i, h := range hops {
				edges[i] = [2]string{h[0], h[1]}
			}
			sc.bound = semiNaiveBound(edges, r)
		}
		return sc
	}
	scs := []*scenario{
		routes("routes-vacuous", 12, 60, 0, ""),
		routes("routes-selective", 8, 50, 8, ""),
		routes("routes-goal", 16, 80, 0, "reach(c0_0, Y)"),
	}

	org := orgFacts(rng, 2, 9, 2, 0.5, 64)
	var same, boss [][3]string
	exp := map[string]bool{}
	for _, f := range org {
		switch f.pred {
		case "same_level":
			same = append(same, [3]string{f.args[0], f.args[1], f.args[2]})
		case "boss":
			boss = append(boss, [3]string{f.args[0], f.args[1], f.args[2]})
		case "experienced":
			exp[f.args[0]] = true
		}
	}
	scs = append(scs, &scenario{name: "organization", src: source(orgRules, org),
		query: "triple(E1, E2, E3)", want: orgTriples(same, boss, exp).digest()})

	par := closedParFacts(rng, 80)
	edges := make([][2]string, len(par))
	for i, f := range par {
		edges[i] = [2]string{f.args[0], f.args[1]}
	}
	anc := closureRel(closure(edges))
	scs = append(scs, &scenario{name: "closed-par", src: source(ancRules, par),
		query: "anc(X, Y)", want: anc.digest(), bound: semiNaiveBound(edges, anc)})
	return scs
}

// semiNaiveBound is the work a semi-naive evaluation of the linear
// closure program must do on these edges: one grounding per edge for
// the exit rule, plus, for every derived (x, z), one per edge out of z
// for the recursive rule. Measured probes over this bound show how
// much the engine does beyond the derivations the program implies.
func semiNaiveBound(edges [][2]string, derived rel) float64 {
	outdeg := map[string]int{}
	for _, e := range edges {
		outdeg[e[0]]++
	}
	b := len(edges)
	for k := range derived {
		_, z, _ := strings.Cut(k, "\x1f")
		b += outdeg[z]
	}
	return float64(b)
}

// loadAndRead loads one scenario cold and fetches its full answer page
// by page, checking it against the oracle.
func (e *env) loadAndRead(c *client, sc *scenario, loads, pages *latencies) (*loadResp, error) {
	e.attempted++
	t0 := time.Now()
	resp, err := c.load(sc.name, loadReq{Program: sc.src, Plan: "auto", Goal: sc.goal})
	if err != nil {
		e.fail(err)
		return nil, err
	}
	if loads != nil {
		*loads = append(*loads, time.Since(t0))
	}
	d, lat, err := c.fetchAll(sc.name, sc.query)
	e.attempted += len(lat)
	if pages != nil {
		*pages = append(*pages, lat...)
	}
	if err != nil {
		e.fail(err)
		return nil, err
	}
	e.check(checkDigest(sc.name+" "+sc.query, d, sc.want))
	return resp, nil
}

// planLoad: repeated cold session loads cycling through the planner
// regimes, each followed by a paged read of the full answer.
func planLoad(e *env) error {
	scs := planScenarios(e.seed)
	var c *client
	d, err := e.measureSetup(func(i int) (*daemon, error) {
		d, err := startDaemon(e.dlogd)
		if err != nil {
			return nil, err
		}
		c = newClient(d.base)
		for _, sc := range scs {
			resp, err := e.loadAndRead(c, sc, nil, nil)
			if err != nil {
				d.kill()
				return nil, fmt.Errorf("setup %s: %w", sc.name, err)
			}
			if i == 0 && resp.Plan != nil {
				e.notef("plan-load: %s chose %s (%d EDB, %d IDB tuples)", sc.name, resp.Plan.Chosen, resp.EDBTuples, resp.IDBTuples)
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.kill() // on early returns; a no-op once d has exited
	before := e.scrapeIfTraced(c)

	var loads, pages latencies
	var done []time.Duration
	start := time.Now()
	for time.Since(start) < e.seconds {
		for _, sc := range scs {
			if _, err := e.loadAndRead(c, sc, &loads, &pages); err == nil {
				done = append(done, time.Since(start))
			}
		}
	}
	elapsed := time.Since(start)

	if e.trace {
		after, err := c.scrapeMetrics()
		if err != nil {
			return err
		}
		e.layerServe(before, after, pages)
		names := make([]string, len(scs))
		for i, sc := range scs {
			names[i] = sc.name
		}
		if err := e.compileTime(c, names...); err != nil {
			return err
		}
	}
	c.close()
	d.stop()

	e.e2e["ops_per_s"] = windowedRate(done, elapsed)
	e.e2e["op_p50_ms"] = loads.pct(0.50)
	e.e2e["op_tail_ms"] = loads.pct(0.90)
	e.e2e["read_p50_ms"] = pages.pct(0.50)
	e.e2e["peak_rss_mb"] = d.peakRSSMB()
	e.notef("plan-load: %d loads and %d page reads in %.2fs; loads %s; pages %s",
		len(loads), len(pages), elapsed.Seconds(), loads.spectrum(), pages.spectrum())

	if e.trace {
		specs := make([]loadSpec, len(scs))
		goals := make([]string, len(scs))
		for i, sc := range scs {
			specs[i] = loadSpec{name: sc.name, src: sc.src, goal: sc.goal, bound: sc.bound, lookups: sc.goal != ""}
			goals[i] = sc.query
		}
		return e.traceLoads(specs, goals)
	}
	return nil
}

// compileTime reads each session's planner compile time from its stats.
func (e *env) compileTime(c *client, sessions ...string) error {
	var compile []float64
	for _, name := range sessions {
		st, err := c.stats(name)
		if err != nil {
			return err
		}
		if st.Planner != nil {
			compile = append(compile, float64(st.Planner.CompileNs)/1e6)
		}
	}
	e.layer["planner.compile_ms"] = mean(compile)
	return nil
}

func (e *env) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
