package main

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// The oracles compute each served relation with plain Go traversals
// over the benchmark's own copy of the EDB. They share no code with the
// engine, so an answer that matches them is checked independently of
// whatever plan dlogd chose.

// rel is a relation as a set of rows; a row's key joins its terms with
// an ASCII unit separator, which no generated constant contains.
type rel map[string]struct{}

func rowKey(row ...string) string { return strings.Join(row, "\x1f") }

func (r rel) add(row ...string) { r[rowKey(row...)] = struct{}{} }

// adjacency groups binary edges by source.
func adjacency(edges [][2]string) map[string][]string {
	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return adj
}

// closureFrom is every node reachable from src by one or more edges.
func closureFrom(adj map[string][]string, src string) []string {
	seen := map[string]bool{}
	var out []string
	queue := append([]string(nil), adj[src]...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		queue = append(queue, adj[n]...)
	}
	return out
}

// closure is the transitive closure of edges, keyed by source: the
// reach and anc relations of the plain recursive programs.
func closure(edges [][2]string) map[string][]string {
	adj := adjacency(edges)
	out := make(map[string][]string, len(adj))
	for src := range adj {
		out[src] = closureFrom(adj, src)
	}
	return out
}

// closureRel flattens a closure into a binary relation.
func closureRel(cl map[string][]string) rel {
	r := rel{}
	for src, dsts := range cl {
		for _, d := range dsts {
			r.add(src, d)
		}
	}
	return r
}

// gatedReach is the routes relation: a gated breadth-first search in
// which the first hop out of a source is free and every later hop must
// land on an open node. hops are (from, to, surface) triples.
func gatedReach(hops [][3]string, open map[string]bool, sources []string) rel {
	adj := map[string][]string{}
	for _, h := range hops {
		adj[h[0]] = append(adj[h[0]], h[1])
	}
	if sources == nil {
		for src := range adj {
			sources = append(sources, src)
		}
	}
	r := rel{}
	for _, src := range sources {
		seen := map[string]bool{}
		queue := append([]string(nil), adj[src]...)
		for _, n := range queue {
			seen[n] = true
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			r.add(src, n)
			for _, m := range adj[n] {
				if open[m] && !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
	}
	return r
}

// visible filters a closure by the closed set: visible(X, Y) holds
// when reach(X, Y) does and Y is not closed.
func visibleRel(cl map[string][]string, closed map[string]bool) rel {
	r := rel{}
	for src, dsts := range cl {
		for _, d := range dsts {
			if !closed[d] {
				r.add(src, d)
			}
		}
	}
	return r
}

// orgTriples is a direct worklist fixpoint of the Example 4.1 program:
// a same_level triple is a triple, and triple(U, E1, E2) extends to
// triple(E1, E2, E3) through every boss(U, E3, R) of an experienced U.
func orgTriples(sameLevel, boss [][3]string, experienced map[string]bool) rel {
	bossOf := map[string][]string{}
	for _, b := range boss {
		bossOf[b[0]] = append(bossOf[b[0]], b[1])
	}
	r := rel{}
	var work [][3]string
	push := func(t [3]string) {
		k := rowKey(t[0], t[1], t[2])
		if _, ok := r[k]; !ok {
			r[k] = struct{}{}
			work = append(work, t)
		}
	}
	for _, t := range sameLevel {
		push(t)
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if !experienced[t[0]] {
			continue
		}
		for _, e3 := range bossOf[t[0]] {
			push([3]string{t[1], t[2], e3})
		}
	}
	return r
}

// digest is an order-independent fingerprint of a set of rows: their
// count plus the sum and xor of each row's 64-bit FNV hash. Two sets
// with equal digests are equal except with negligible probability, so
// a full answer can be checked page by page without keeping it.
type digest struct {
	n        int
	sum, xor uint64
}

func (d *digest) add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	d.n++
	d.sum += v
	d.xor ^= v * 0x9e3779b97f4a7c15
}

func (d *digest) addRow(row []string) { d.add(rowKey(row...)) }

func (r rel) digest() digest {
	var d digest
	for k := range r {
		d.add(k)
	}
	return d
}

// checkDigest compares a served answer's digest with the oracle's.
func checkDigest(what string, got, want digest) error {
	if got != want {
		return fmt.Errorf("%s: served %d rows, oracle has %d (fingerprints differ)", what, got.n, want.n)
	}
	return nil
}

// checkPage verifies one page of a point query: the reported total
// matches the oracle's answer count and every row is an oracle answer,
// with no row repeated.
func checkPage(goal string, want rel, total int, rows [][]string) error {
	if total != len(want) {
		return fmt.Errorf("%s: total %d, oracle has %d answers", goal, total, len(want))
	}
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		k := rowKey(row...)
		if _, ok := want[k]; !ok || seen[k] {
			return fmt.Errorf("%s: row %v is not an oracle answer (or repeats)", goal, row)
		}
		seen[k] = true
	}
	return nil
}
