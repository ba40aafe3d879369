// Package ett implements the Euler tour technique on reconfigurable
// circuits (paper §3.1, Lemmas 14–17).
//
// Given a tree T with a cyclic (counterclockwise) neighbor order per node —
// the shared chirality of the amoebots — each undirected edge is replaced by
// two directed edges, and the Euler tour visits them by the rule "after
// (u,v) continue with (v,w) where w follows u counterclockwise around v".
// Every node operates one O(1)-memory instance per occurrence on the tour
// (Remark 16). A weight function marks one outgoing edge per node of a set
// Q; a prefix-sum PASC over the instance sequence then delivers, bit by bit
// and LSB first, prefixsum(u,v) and prefixsum(v,u) for every incident edge
// of every node, plus |Q| at the root (Corollary 15).
//
// The primitives built on the ETT only ever read subtree counts of Q off
// it, so they evaluate those counts in closed form and charge the run with
// sim.Clock.ChargeETT (DESIGN.md §2). This package holds the trees and
// tours the abstract-tree primitives of internal/treeprim and E6 walk, and
// Run, which executes the prefix-sum PASC bit by bit: the reference the
// package tests (and the tree primitives' oracle tests) drive. No query
// runs it.
package ett

import (
	"fmt"

	"spforest/internal/pasc"
	"spforest/internal/sim"
)

// Tree is a tree (or forest component) over dense local node indices with
// an explicit cyclic neighbor order per node. Neighbors[u][j] is the j-th
// neighbor of u counterclockwise.
type Tree struct {
	Neighbors [][]int32
}

// NewTree validates and returns a tree over the given adjacency. The
// adjacency must be symmetric and form a single connected acyclic graph.
func NewTree(neighbors [][]int32) (*Tree, error) {
	t := &Tree{Neighbors: neighbors}
	n := len(neighbors)
	if n == 0 {
		return nil, fmt.Errorf("ett: empty tree")
	}
	edges := 0
	for u, ns := range neighbors {
		edges += len(ns)
		for _, v := range ns {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("ett: node %d has out-of-range neighbor %d", u, v)
			}
			if t.ordinal(v, int32(u)) < 0 {
				return nil, fmt.Errorf("ett: edge %d->%d not symmetric", u, v)
			}
		}
	}
	if edges != 2*(n-1) {
		return nil, fmt.Errorf("ett: %d directed edges for %d nodes, not a tree", edges, n)
	}
	// Connectivity: walk from node 0.
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, v := range neighbors[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	if count != n {
		return nil, fmt.Errorf("ett: tree not connected")
	}
	return t, nil
}

// MustTree is NewTree that panics on error.
func MustTree(neighbors [][]int32) *Tree {
	t, err := NewTree(neighbors)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Neighbors) }

// Degree returns the degree of node u.
func (t *Tree) Degree(u int32) int { return len(t.Neighbors[u]) }

func (t *Tree) ordinal(u, v int32) int {
	for j, w := range t.Neighbors[u] {
		if w == v {
			return j
		}
	}
	return -1
}

// Tour is the Euler tour of a tree split at a root. Instance i is operated
// by Node(i); for i < Edges(), instance i's outgoing directed edge is
// (Node(i), Node(i+1)).
type Tour struct {
	tree *Tree
	root int32
	node []int32 // instance -> operating node; length Edges()+1

	// outInst and inInst hold, per node u and neighbor ordinal j, the
	// instance of u whose outgoing edge goes to (incoming edge comes from)
	// Neighbors[u][j]. Both are flat arrays over the directed edges,
	// indexed off[u]+j — one allocation each instead of one slice per
	// node.
	off     []int32
	outInst []int32
	inInst  []int32
}

// BuildTour constructs the Euler tour of t rooted at root, starting along
// the root's first neighbor. The walk terminates when it closes (returns
// to the root with every incident edge consumed), so t may also be a
// forest over the shared index space: the tour covers root's component and
// the instance tables keep -1 for every other component's edge.
func BuildTour(t *Tree, root int32) *Tour {
	n := t.Len()
	edges := 0
	for u := 0; u < n; u++ {
		edges += t.Degree(int32(u))
	}
	tour := &Tour{
		tree:    t,
		root:    root,
		off:     make([]int32, n+1),
		outInst: make([]int32, edges),
		inInst:  make([]int32, edges),
	}
	for u := 0; u < n; u++ {
		tour.off[u+1] = tour.off[u] + int32(t.Degree(int32(u)))
	}
	for i := range tour.outInst {
		tour.outInst[i] = -1
		tour.inInst[i] = -1
	}
	if t.Degree(root) == 0 {
		tour.node = []int32{root}
		return tour
	}
	tour.node = make([]int32, 0, edges+1)
	u := root
	jOut := 0 // root exits via its first neighbor
	for i := 0; ; i++ {
		v := t.Neighbors[u][jOut]
		tour.node = append(tour.node, u)
		tour.outInst[tour.off[u]+int32(jOut)] = int32(i)
		// v's incoming edge from u arrives at instance i+1.
		jIn := t.ordinal(v, u)
		tour.inInst[tour.off[v]+int32(jIn)] = int32(i + 1)
		// Next outgoing edge at v: the neighbor after u counterclockwise.
		jOut = (jIn + 1) % t.Degree(v)
		u = v
		// The canonical tour exits each node's ordinals in cyclic order from
		// the arrival ordinal +1; it returns to the root poised to exit
		// ordinal 0 again exactly once — when the component is consumed.
		if u == root && jOut == 0 {
			break
		}
	}
	tour.node = append(tour.node, u)
	return tour
}

// Len returns the number of instances (Edges()+1).
func (t *Tour) Len() int { return len(t.node) }

// Edges returns the number of directed edges (2(n-1)).
func (t *Tour) Edges() int { return len(t.node) - 1 }

// Root returns the tour root.
func (t *Tour) Root() int32 { return t.root }

// Node returns the node operating instance i.
func (t *Tour) Node(i int32) int32 { return t.node[i] }

// Tree returns the underlying tree.
func (t *Tour) Tree() *Tree { return t.tree }

// OutInstance returns the instance of u whose outgoing edge leads to its
// j-th neighbor.
func (t *Tour) OutInstance(u int32, j int) int32 { return t.outInst[t.off[u]+int32(j)] }

// InInstance returns the instance of u whose incoming edge arrives from its
// j-th neighbor.
func (t *Tour) InInstance(u int32, j int) int32 { return t.inInst[t.off[u]+int32(j)] }

// Run is one ETT execution: a prefix-sum PASC over the tour instances with
// the weight function w_Q (each node of Q marks the outgoing edge of its
// first tour instance). Step the run to completion, reading per-edge prefix
// bits and the |Q| bit each iteration with EdgeBits and TotalBit.
type Run struct {
	tour *Tour
	prun *pasc.Run
	bits []uint8
}

// NewRun prepares an ETT over the tour for the node set inQ.
func NewRun(tour *Tour, inQ []bool) *Run {
	if len(inQ) != tour.tree.Len() {
		panic("ett: inQ length mismatch")
	}
	weights := make([]bool, tour.Edges())
	marked := make([]bool, tour.tree.Len())
	for i := 0; i < tour.Edges(); i++ {
		u := tour.node[i]
		if inQ[u] && !marked[u] {
			marked[u] = true
			weights[i] = true
		}
	}
	// Single-node trees have no edges to mark; the caller must handle the
	// degenerate case (the prefix PASC still runs and yields |Q| = 0).
	return &Run{tour: tour, prun: pasc.NewPrefixSum(weights)}
}

// Done reports whether all weighted instances have finished.
func (r *Run) Done() bool { return r.prun.Done() }

// Iterations returns the PASC iterations executed.
func (r *Run) Iterations() int { return r.prun.Iterations() }

// Step executes one ETT iteration (one PASC iteration, 2 rounds).
func (r *Run) Step(clock *sim.Clock) {
	r.bits = r.prun.Step(clock)
}

// EdgeBits returns, for the current iteration, the bit of prefixsum(u→vj)
// and prefixsum(vj→u), where vj is u's j-th neighbor. Both prefix sums are
// observed locally by u: the outgoing edge at u's own instance, the
// incoming edge as the value entering that instance (Lemma 14).
func (r *Run) EdgeBits(u int32, j int) (out, in uint8) {
	// pasc slot s corresponds to tour instance s-1; instance i's prefix sum
	// (covering edges e_0..e_i's weights... w(instance i) = w(e_i)) lives at
	// slot i+1. The incoming edge e_{i-1} of instance i has prefix sum at
	// slot i.
	oi := r.tour.OutInstance(u, j)
	ii := r.tour.InInstance(u, j)
	return r.bits[oi+1], r.bits[ii]
}

// TotalBit returns the current bit of |Q|, read by the root off its final
// instance (Corollary 15).
func (r *Run) TotalBit() uint8 {
	return r.bits[len(r.bits)-1]
}
