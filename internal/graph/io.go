package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// nodeCommentID recognizes the "# node <id>" comment convention that keeps
// isolated nodes through a text round trip. The line must be trimmed and
// start with '#'; anything that is not exactly a node declaration is an
// ordinary comment. The parallel loader and the sequential reference in
// seqload_test.go both call this, so they cannot disagree on what counts
// as a declaration.
func nodeCommentID(line string) (int64, bool) {
	fields := strings.Fields(line[1:])
	if len(fields) != 2 || fields[0] != "node" {
		return 0, false
	}
	id, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || id == tombstone {
		return 0, false
	}
	return id, true
}

// Validate checks the structural invariants of a directed graph: adjacency
// vectors sorted and duplicate-free, in/out vectors mutually consistent,
// and the edge count correct. Tests and property checks call it after
// mutation sequences.
func (g *Directed) Validate() error {
	var edges int64
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		if got, ok := g.idx[id]; !ok || got != int32(s) {
			return fmt.Errorf("graph: node %d slot mapping broken", id)
		}
		for i, v := range g.outAdj[s] {
			if i > 0 && g.outAdj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d out-vector not strictly sorted", id)
			}
			ds, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d points at missing node", id, v)
			}
			if _, found := binarySearch(g.inAdj[ds], id); !found {
				return fmt.Errorf("graph: edge %d->%d missing from in-vector", id, v)
			}
		}
		for i, v := range g.inAdj[s] {
			if i > 0 && g.inAdj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d in-vector not strictly sorted", id)
			}
			ss, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d points at missing node", v, id)
			}
			if _, found := binarySearch(g.outAdj[ss], id); !found {
				return fmt.Errorf("graph: edge %d->%d missing from out-vector", v, id)
			}
		}
		edges += int64(len(g.outAdj[s]))
	}
	if edges != g.nEdges {
		return fmt.Errorf("graph: edge count %d, vectors hold %d", g.nEdges, edges)
	}
	return nil
}

// Validate checks the invariants of an undirected graph.
func (g *Undirected) Validate() error {
	var halfEdges int64
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		if got, ok := g.idx[id]; !ok || got != int32(s) {
			return fmt.Errorf("graph: node %d slot mapping broken", id)
		}
		for i, v := range g.adj[s] {
			if i > 0 && g.adj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d vector not strictly sorted", id)
			}
			ns, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge {%d,%d} points at missing node", id, v)
			}
			if v != id {
				if _, found := binarySearch(g.adj[ns], id); !found {
					return fmt.Errorf("graph: edge {%d,%d} not symmetric", id, v)
				}
				halfEdges++
			} else {
				halfEdges += 2
			}
		}
	}
	if halfEdges%2 != 0 || halfEdges/2 != g.nEdges {
		return fmt.Errorf("graph: edge count %d, vectors hold %d halves", g.nEdges, halfEdges)
	}
	return nil
}

func binarySearch(a []int64, v int64) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == v
}
