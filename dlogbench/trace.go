package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/planner"
	"repro/internal/storage"
)

// The traced run times each layer's public entry points in-process, on
// the same inputs and in the same order the dlogd session uses them:
// parser.Parse, planner.Plan and Engine.RunContext for a session load,
// parser.ParseAtom and Relation.LookupNoBuild for a point read, and
// Engine.ApplyZSetContext, the recompute fallback and
// Database.Snapshot for a commit. The serve and durable layers run only
// inside dlogd; their figures come from its /metrics histograms and
// session stats, scraped around the measured phase.

// loadSpec is one session load to replay.
type loadSpec struct {
	name, src, goal string
	bound           float64 // analytic probe bound, 0 when none applies
	lookups         bool    // replay the read goal stream against this program's snapshot
}

// parsedProgram splits a parsed source the way a session load does:
// facts into a fresh database, rules into the program.
func parsedProgram(res *parser.Result) (*ast.Program, *storage.Database) {
	db := storage.NewDatabase()
	var rules []ast.Rule
	for _, r := range res.Program.Rules {
		if r.IsFact() {
			db.AddFact(r.Head)
		} else {
			rules = append(rules, r)
		}
	}
	prog := &ast.Program{Rules: rules}
	prog.EnsureLabels()
	return prog, db
}

// plannedEngine builds an engine as a planned dlogd session does: the
// default join mode, with the statistics cost model over db.
func plannedEngine(prog *ast.Program, db *storage.Database) *eval.Engine {
	eng := eval.New(prog, db)
	eng.SetCostModel(eval.StatsCostModel{DB: db})
	return eng
}

// evaluated is one full fixpoint of a plan candidate.
type evaluated struct {
	db     *storage.Database
	zs     *eval.ZState
	stats  eval.Stats
	dur    time.Duration
	probes float64
}

// runCandidate evaluates prog to fixpoint on a fresh copy of src's EDB
// with statistics enabled, as planner.Plan leaves a session's database.
func runCandidate(res *parser.Result, prog *ast.Program) (*evaluated, error) {
	_, db := parsedProgram(res)
	for pred := range prog.EDBPreds() {
		if rel := db.Relation(pred); rel != nil {
			rel.EnsureStats()
		}
	}
	zs := eval.NewZState()
	eng := plannedEngine(prog, db)
	eng.SetRankSink(zs.Record)
	t0 := time.Now()
	if err := eng.RunContext(context.Background()); err != nil {
		return nil, err
	}
	st := eng.Stats()
	return &evaluated{db: db, zs: zs, stats: st, dur: time.Since(t0), probes: float64(st.Probes + st.IndexProbes)}, nil
}

// loaded is the replayed session state of one load.
type loaded struct {
	active *ast.Program
	chosen *evaluated
}

// traceLoad replays one session load: parse, plan, and the chosen
// plan's fixpoint. Every other candidate is evaluated too, as E13's
// oracle does, to price the planner's choice against the measured best.
func traceLoad(sp loadSpec) (l *loaded, parse, plan time.Duration, gap float64, err error) {
	t0 := time.Now()
	res, err := parser.Parse(sp.src)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	parse = time.Since(t0)
	prog, db := parsedProgram(res)
	var goal *ast.Atom
	if sp.goal != "" {
		g, err := parser.ParseAtom(sp.goal)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		goal = &g
	}
	t0 = time.Now()
	dec, err := planner.Plan(prog, db, planner.Options{ICs: res.ICs, Goal: goal})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	plan = time.Since(t0)
	l = &loaded{active: dec.Program()}
	best := math.Inf(1)
	for _, cand := range dec.Candidates {
		if cand.Program == nil {
			continue
		}
		ev, err := runCandidate(res, cand.Program)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("%s/%s: %w", sp.name, cand.Variant, err)
		}
		best = math.Min(best, ev.probes)
		if cand.Variant == dec.Chosen {
			l.chosen = ev
		}
	}
	gap = 1
	if best > 0 {
		gap = l.chosen.probes / best
	}
	return l, parse, plan, gap, nil
}

// traceLoads fills the parser, planner, eval and storage per-layer
// metrics from replayed loads and the read goal stream.
func (e *env) traceLoads(specs []loadSpec, goals []string) error {
	var parseMS, planMS, fixMS, gaps []float64
	var derived, inserted, probes, bound float64
	var lookupOn *storage.Database
	for _, sp := range specs {
		l, parse, plan, gap, err := traceLoad(sp)
		if err != nil {
			return fmt.Errorf("trace load %s: %w", sp.name, err)
		}
		parseMS = append(parseMS, ms(parse))
		planMS = append(planMS, ms(plan))
		fixMS = append(fixMS, ms(l.chosen.dur))
		gaps = append(gaps, gap)
		derived += float64(l.chosen.stats.Derived)
		inserted += float64(l.chosen.stats.Inserted)
		if sp.bound > 0 {
			probes += l.chosen.probes
			bound += sp.bound
		}
		if sp.lookups {
			lookupOn = l.chosen.db.Snapshot()
		}
	}
	e.layer["parser.load_parse_ms"] = mean(parseMS)
	e.layer["planner.plan_ms"] = mean(planMS)
	e.layer["eval.fixpoint_ms"] = mean(fixMS)
	e.layer["planner.oracle_gap"] = geomean(gaps)
	if derived > 0 {
		e.layer["eval.inserted_per_derived"] = inserted / derived
	}
	if bound > 0 {
		e.layer["eval.probes_per_bound"] = probes / bound
	}

	atoms := make([]ast.Atom, 0, len(goals))
	t0 := time.Now()
	for _, g := range goals {
		a, err := parser.ParseAtom(g)
		if err != nil {
			return err
		}
		atoms = append(atoms, a)
	}
	e.layer["parser.goal_parse_us"] = us(time.Since(t0)) / float64(len(goals))
	if lookupOn != nil {
		var bound []ast.Atom
		for _, a := range atoms {
			if bindsArg(a) {
				bound = append(bound, a)
			}
		}
		t0 = time.Now()
		for _, a := range bound {
			lookup(lookupOn, a)
		}
		if len(bound) > 0 {
			e.layer["storage.lookup_us"] = us(time.Since(t0)) / float64(len(bound))
		}
	}
	return nil
}

// lookup is the storage work of one point read on a published
// snapshot: an index lookup on the first bound column, or a full scan
// when that column has no index. Only goals that bind an argument are
// timed; an unbound goal is a plain walk of the relation.
func lookup(db *storage.Database, goal ast.Atom) int {
	r := db.Relation(goal.Pred)
	if r == nil {
		return 0
	}
	for i, arg := range goal.Args {
		if _, isVar := arg.(ast.Var); isVar {
			continue
		}
		v, ok := storage.LookupTerm(arg)
		if !ok {
			return 0
		}
		if pos, ok := r.LookupNoBuild(i, v); ok {
			return len(pos)
		}
		n := 0
		for _, t := range r.Tuples() {
			if t[i] == v {
				n++
			}
		}
		return n
	}
	return r.Len()
}

func bindsArg(a ast.Atom) bool {
	for _, arg := range a.Args {
		if _, isVar := arg.(ast.Var); !isVar {
			return true
		}
	}
	return false
}

// writeOp is one toggled EDB fact.
type writeOp struct {
	pred string
	args []string
	add  bool
}

// traceWrites replays a write stream through the commit path's engine
// and storage calls, as a dlogd session's sequential commit does: the
// Z-set sweep, the full recompute when the sweep refuses a change that
// reaches a negated predicate, and the snapshot published after each
// commit (which the next commit's copy-on-write then detaches from).
func (e *env) traceWrites(sp loadSpec, ops []writeOp) error {
	l, _, _, _, err := traceLoad(sp)
	if err != nil {
		return err
	}
	db, zs := l.chosen.db, l.chosen.zs
	idb := l.active.IDBPreds()
	db.Snapshot()
	var zsetDur, recompDur, snapDur time.Duration
	var commits, recomputes int
	var derived int64
	for _, op := range ops {
		terms := make([]ast.Term, len(op.args))
		for i, a := range op.args {
			terms[i] = ast.Sym(a)
		}
		t := storage.TupleOf(terms...)
		z := storage.ZSetOfChanges(nil, []storage.Tuple{t})
		if op.add {
			z = storage.ZSetOfChanges([]storage.Tuple{t}, nil)
		}
		eng := plannedEngine(l.active, db)
		t0 := time.Now()
		_, err := eng.ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{op.pred: z})
		switch {
		case err == nil:
			zsetDur += time.Since(t0)
			derived += eng.Stats().Derived
			commits++
		case errors.Is(err, eval.ErrNeedsRecompute):
			if op.add {
				db.Ensure(op.pred, len(t)).Insert(t)
			} else {
				db.RemoveTuple(op.pred, t)
			}
			t0 = time.Now()
			fresh := storage.NewDatabase()
			for _, pred := range db.Preds() {
				if !idb[pred] {
					fresh.Replace(db.Relation(pred).Clone())
				}
			}
			zs = eval.NewZState()
			reng := plannedEngine(l.active, fresh)
			reng.SetRankSink(zs.Record)
			if err := reng.RunContext(context.Background()); err != nil {
				return err
			}
			db = fresh
			recompDur += time.Since(t0)
			recomputes++
		default:
			return err
		}
		// Publishing marks every relation copy-on-write, so the next
		// commit pays the detach copy of each relation it touches.
		t0 = time.Now()
		db.Snapshot()
		snapDur += time.Since(t0)
	}
	if commits > 0 {
		e.layer["eval.zset_us_per_commit"] = us(zsetDur) / float64(commits)
	}
	if derived > 0 {
		e.layer["eval.zset_ns_per_derived"] = float64(zsetDur.Nanoseconds()) / float64(derived)
	}
	if recomputes > 0 {
		e.layer["eval.recompute_ms"] = ms(recompDur) / float64(recomputes)
	}
	if n := len(ops); n > 0 {
		e.layer["storage.snapshot_us"] = us(snapDur) / float64(n)
	}
	return nil
}

// scrapeIfTraced reads /metrics when the run is traced, nil otherwise.
func (e *env) scrapeIfTraced(c *client) *scrape {
	if !e.trace {
		return nil
	}
	s, err := c.scrapeMetrics()
	if err != nil {
		e.fail(err)
		return &scrape{samples: map[string]float64{}, hists: map[string]*hist{}}
	}
	return s
}

// layerServe fills the read-path serve metrics from two scrapes and the
// client-side latencies of the reads between them.
func (e *env) layerServe(before, after *scrape, reads latencies) {
	q := after.since(before, "serve_query_ns")
	e.layer["serve.query_p50_us"] = q.quantile(0.5) / 1e3
	e.layer["serve.read_unattributed_p50_us"] = reads.pct(0.5)*1e3 - e.layer["serve.query_p50_us"]
	hits := after.sampleSince(before, "serve_cache_hits")
	if total := hits + after.sampleSince(before, "serve_cache_misses"); total > 0 {
		e.layer["serve.cache_hit_ratio"] = hits / total
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
