package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// fact is one ground EDB fact in source syntax terms.
type fact struct {
	pred string
	args []string
}

func (f fact) String() string { return f.pred + "(" + strings.Join(f.args, ", ") + ")" }

// source renders a program: rules (and constraints) followed by facts.
func source(rules string, facts []fact) string {
	var b strings.Builder
	b.WriteString(rules)
	for _, f := range facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// The rule texts below are the programs dlogd serves. The oracles in
// oracle.go compute the same relations with plain Go traversals.
const (
	routesRules = `
reach(X, Y) :- hop(X, Y, R).
reach(X, Y) :- reach(X, Z), hop(Z, Y, R), open(Y).
hop(Z, Y, R), open(Y) -> R = paved.
`
	orgRules = `
triple(E1, E2, E3) :- same_level(E1, E2, E3).
triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple(U, E1, E2).
boss(E, B, R), R = executive -> experienced(B).
`
	ancRules = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(X, Z), par(Z, Y) -> par(X, Y).
`
	reachRules = `
reach(X, Y) :- hop(X, Y).
reach(X, Y) :- reach(X, Z), hop(Z, Y).
`
	visibleRule = `visible(X, Y) :- reach(X, Y), not closed(Y).
`
)

// routesFacts builds `chains` paved waypoint chains of the given depth
// plus `spurs` dead-end hops per waypoint onto non-open nodes with
// unpaved surfaces. The routes constraint holds by construction: only
// chain hops enter open waypoints, and they are all paved.
func routesFacts(rng *rand.Rand, chains, depth, spurs int) []fact {
	surfaces := []string{"gravel", "dirt"}
	var fs []fact
	for c := 0; c < chains; c++ {
		node := func(j int) string { return fmt.Sprintf("c%d_%d", c, j) }
		for j := 0; j < depth; j++ {
			fs = append(fs, fact{"hop", []string{node(j), node(j + 1), "paved"}},
				fact{"open", []string{node(j + 1)}})
			for s := 0; s < spurs; s++ {
				dead := fmt.Sprintf("d%d_%d_%d", c, j, s)
				fs = append(fs, fact{"hop", []string{node(j), dead, surfaces[rng.Intn(len(surfaces))]}})
			}
		}
	}
	return fs
}

// orgFacts builds the Example 4.1 organization: `roots` hierarchies
// `levels` deep with the given branching. boss(E, B, R) says B is E's
// boss with rank R; execFrac of the ranks are executive. Every boss is
// experienced, so the constraint holds and the recursion is productive.
// Up to sameCap same_level triples are drawn from each level.
func orgFacts(rng *rand.Rand, roots, levels, branching int, execFrac float64, sameCap int) []fact {
	ranks := []string{"manager", "lead", "director"}
	id := 0
	newEmp := func() string { id++; return fmt.Sprintf("e%d", id) }
	var fs []fact
	var perLevel [][]string
	for r := 0; r < roots; r++ {
		top := newEmp()
		fs = append(fs, fact{"experienced", []string{top}})
		level := []string{top}
		for l := 0; l < levels; l++ {
			if len(perLevel) <= l {
				perLevel = append(perLevel, nil)
			}
			perLevel[l] = append(perLevel[l], level...)
			var next []string
			for _, b := range level {
				for c := 0; c < branching; c++ {
					emp := newEmp()
					rank := ranks[rng.Intn(len(ranks))]
					if rng.Float64() < execFrac {
						rank = "executive"
					}
					fs = append(fs, fact{"boss", []string{emp, b, rank}},
						fact{"experienced", []string{emp}})
					next = append(next, emp)
				}
			}
			level = next
		}
	}
	for _, emps := range perLevel {
		for i := 0; i+2 < len(emps) && i < sameCap; i++ {
			fs = append(fs, fact{"same_level", []string{emps[i], emps[i+1], emps[i+2]}})
		}
	}
	return fs
}

// closedParFacts is a transitively closed parent relation over n
// people in a seeded order: par(a, b) for every a before b. Its
// recursion is provably bounded under the anc constraint.
func closedParFacts(rng *rand.Rand, n int) []fact {
	people := rng.Perm(n)
	var fs []fact
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			fs = append(fs, fact{"par", []string{fmt.Sprintf("p%d", people[i]), fmt.Sprintf("p%d", people[j])}})
		}
	}
	return fs
}

// graph is the chain-and-bridge graph of serve-read and serve-write:
// `chains` hop chains of `length` nodes, grouped into blocks of
// `group` chains, with bridges from a chain to a later chain of the
// same block. Bridges never leave a block and always point to a
// higher chain, so the graph is acyclic and its closure stays within
// a small multiple of the chains' own.
type graph struct {
	chains, length int
	static         [][2]string // chain hops and fixed bridges
	toggles        [][2]string // bridges the writer toggles; the first half start present
}

func node(c, j int) string { return fmt.Sprintf("n%d_%d", c, j) }

func genGraph(rng *rand.Rand, chains, length, group, fixed, toggles int) *graph {
	g := &graph{chains: chains, length: length}
	seen := map[[2]string]bool{}
	for c := 0; c < chains; c++ {
		for j := 0; j+1 < length; j++ {
			e := [2]string{node(c, j), node(c, j+1)}
			seen[e] = true
			g.static = append(g.static, e)
		}
	}
	// Bridge endpoints are drawn from evenly spread positions, shuffled
	// by the seed, so the closure's size varies little between seeds
	// while which chains and nodes are bridged varies freely.
	positions := func(n int) []int {
		out := make([]int, n)
		for i, p := range rng.Perm(n) {
			out[i] = (2*p + 1) * length / (2 * n)
		}
		return out
	}
	bridges := func(n int) [][2]string {
		xs, ys := positions(n), positions(n)
		out := make([][2]string, 0, n)
		for i := 0; i < n; i++ {
			for {
				a := rng.Intn(chains)
				blockEnd := min((a/group+1)*group, chains)
				if a+1 >= blockEnd {
					continue
				}
				b := a + 1 + rng.Intn(blockEnd-a-1)
				e := [2]string{node(a, xs[i]), node(b, ys[i])}
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
					break
				}
			}
		}
		return out
	}
	g.static = append(g.static, bridges(fixed)...)
	g.toggles = bridges(toggles)
	return g
}

// nodes lists every node of the graph.
func (g *graph) nodes() []string {
	out := make([]string, 0, g.chains*g.length)
	for c := 0; c < g.chains; c++ {
		for j := 0; j < g.length; j++ {
			out = append(out, node(c, j))
		}
	}
	return out
}

// initialHops is the hop relation at load: static edges plus the first
// half of the togglable bridges.
func (g *graph) initialHops() map[[2]string]bool {
	hops := make(map[[2]string]bool, len(g.static)+len(g.toggles))
	for _, e := range g.static {
		hops[e] = true
	}
	for _, e := range g.toggles[:len(g.toggles)/2] {
		hops[e] = true
	}
	return hops
}

func hopFacts(hops map[[2]string]bool) []fact {
	fs := make([]fact, 0, len(hops))
	for e := range hops {
		fs = append(fs, fact{"hop", []string{e[0], e[1]}})
	}
	sortFacts(fs)
	return fs
}

func sortFacts(fs []fact) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].String() < fs[j].String() })
}
