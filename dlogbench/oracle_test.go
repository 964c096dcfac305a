package main

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// keys lists a relation's rows in order, terms joined by commas.
func keys(r rel) []string {
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, strings.ReplaceAll(k, "\x1f", ","))
	}
	sort.Strings(out)
	return out
}

func TestClosureByHand(t *testing.T) {
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"b", "d"}}
	got := keys(closureRel(closure(edges)))
	want := []string{"a,b", "a,c", "a,d", "b,c", "b,d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("closure = %v, want %v", got, want)
	}
	// A cycle makes every node on it reach itself.
	edges = append(edges, [2]string{"c", "a"})
	got = keys(closureRel(closure(edges)))
	want = []string{"a,a", "a,b", "a,c", "a,d", "b,a", "b,b", "b,c", "b,d", "c,a", "c,b", "c,c", "c,d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cyclic closure = %v, want %v", got, want)
	}
}

func TestGatedReachByHand(t *testing.T) {
	hops := [][3]string{
		{"a", "b", "gravel"}, {"b", "c", "paved"}, {"c", "d", "paved"}, {"a", "e", "dirt"},
	}
	got := keys(gatedReach(hops, map[string]bool{"c": true}, nil))
	// The first hop is free; after it only open nodes extend a route:
	// a reaches c through b, but nothing reaches d beyond its direct hop.
	want := []string{"a,b", "a,c", "a,e", "b,c", "c,d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gated reach = %v, want %v", got, want)
	}
	got = keys(gatedReach(hops, map[string]bool{"c": true}, []string{"a"}))
	if want := []string{"a,b", "a,c", "a,e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("goal-bound gated reach = %v, want %v", got, want)
	}
}

func TestGatedReachAllOpenIsClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var hops [][3]string
	var edges [][2]string
	open := map[string]bool{}
	for i := 0; i < 60; i++ {
		a, b := node(0, rng.Intn(15)), node(0, rng.Intn(15))
		hops = append(hops, [3]string{a, b, "paved"})
		edges = append(edges, [2]string{a, b})
		open[a], open[b] = true, true
	}
	if g, c := gatedReach(hops, open, nil).digest(), closureRel(closure(edges)).digest(); g != c {
		t.Fatalf("all-open gated reach %d rows, closure %d rows", g.n, c.n)
	}
}

func TestVisibleByHand(t *testing.T) {
	cl := closure([][2]string{{"a", "b"}, {"b", "c"}})
	got := keys(visibleRel(cl, map[string]bool{"b": true}))
	if want := []string{"a,c", "b,c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("visible = %v, want %v", got, want)
	}
}

// TestOrgTriplesExample41 evaluates the Example 4.1 program on a small
// organization: a same_level triple (a, b, c), a's boss d, and d's
// executive boss e. Every boss is experienced except where noted, so
// the hand derivation is
//
//	triple(a, b, c)  same_level
//	triple(b, c, d)  boss(a, d, manager), experienced(a), triple(a, b, c)
//	triple(c, d, e)  boss(b, e, executive), experienced(b), triple(b, c, d)
//
// and nothing extends triple(c, d, e) because c has no boss.
func TestOrgTriplesExample41(t *testing.T) {
	same := [][3]string{{"a", "b", "c"}}
	boss := [][3]string{{"a", "d", "manager"}, {"b", "e", "executive"}}
	exp := map[string]bool{"a": true, "b": true}
	got := keys(orgTriples(same, boss, exp))
	want := []string{"a,b,c", "b,c,d", "c,d,e"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("triples = %v, want %v", got, want)
	}
	// Without experienced(b) the chain stops after one step.
	got = keys(orgTriples(same, boss, map[string]bool{"a": true}))
	if want := []string{"a,b,c", "b,c,d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("triples without experienced(b) = %v, want %v", got, want)
	}
}

// TestChecksRejectWrongAnswers feeds the checks one deliberately wrong
// answer of each kind and shows each is rejected, while the right
// answer passes.
func TestChecksRejectWrongAnswers(t *testing.T) {
	want := closureRel(closure([][2]string{{"a", "b"}, {"b", "c"}}))
	right := [][]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	wrong := [][]string{{"a", "b"}, {"a", "c"}, {"c", "b"}}

	var d digest
	for _, row := range right {
		d.addRow(row)
	}
	if err := checkDigest("reach", d, want.digest()); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	d = digest{}
	for _, row := range wrong {
		d.addRow(row)
	}
	if err := checkDigest("reach", d, want.digest()); err == nil {
		t.Fatal("digest check accepted a wrong row")
	}

	if err := checkPage("reach(X, Y)", want, 3, right[:2]); err != nil {
		t.Fatalf("right page rejected: %v", err)
	}
	if err := checkPage("reach(X, Y)", want, 3, wrong[2:]); err == nil {
		t.Fatal("page check accepted a wrong row")
	}
	if err := checkPage("reach(X, Y)", want, 2, right[:2]); err == nil {
		t.Fatal("page check accepted a wrong total")
	}
	if err := checkPage("reach(X, Y)", want, 3, [][]string{{"a", "b"}, {"a", "b"}}); err == nil {
		t.Fatal("page check accepted a repeated row")
	}
}
