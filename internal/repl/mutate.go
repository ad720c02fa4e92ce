package repl

import (
	"fmt"
	"strconv"
)

// The fine-grained graph mutation verbs (addedge, deledge, addnode) are
// the shell surface of the incremental tier: they log a delta against a
// bound graph's CSR view, which the next analytics query folds into it,
// and cached undirected views survive as patch bases (see
// internal/core/incremental.go). Like every mutating verb they are
// serialized against queries by the host's session lock.

// parseNodeID parses one node-id argument.
func parseNodeID(tok string) (int64, error) {
	id, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", tok)
	}
	return id, nil
}

// bindMutated records the mutated graph binding on the result.
func (e *Engine) bindMutated(r *Result, name string) {
	r.Bound = name
	r.Kind = e.ws.Kind(name)
}

func (e *Engine) cmdAddEdge(r *Result, args []string) error {
	if err := need(args, 3, "addedge <graph> <src> <dst>"); err != nil {
		return err
	}
	src, err := parseNodeID(args[1])
	if err != nil {
		return err
	}
	dst, err := parseNodeID(args[2])
	if err != nil {
		return err
	}
	ok, err := e.ws.AddGraphEdge(args[0], src, dst)
	if err != nil {
		return err
	}
	e.bindMutated(r, args[0])
	if !ok {
		r.Message = fmt.Sprintf("%s: edge %d -> %d already present", args[0], src, dst)
		return nil
	}
	r.Message = fmt.Sprintf("%s: added edge %d -> %d (%d pending deltas)",
		args[0], src, dst, len(e.ws.PendingDeltas(args[0])))
	return nil
}

func (e *Engine) cmdDelEdge(r *Result, args []string) error {
	if err := need(args, 3, "deledge <graph> <src> <dst>"); err != nil {
		return err
	}
	src, err := parseNodeID(args[1])
	if err != nil {
		return err
	}
	dst, err := parseNodeID(args[2])
	if err != nil {
		return err
	}
	ok, err := e.ws.DelGraphEdge(args[0], src, dst)
	if err != nil {
		return err
	}
	e.bindMutated(r, args[0])
	if !ok {
		r.Message = fmt.Sprintf("%s: no edge %d -> %d", args[0], src, dst)
		return nil
	}
	r.Message = fmt.Sprintf("%s: deleted edge %d -> %d (%d pending deltas)",
		args[0], src, dst, len(e.ws.PendingDeltas(args[0])))
	return nil
}

func (e *Engine) cmdAddNode(r *Result, args []string) error {
	if err := need(args, 2, "addnode <graph> <id>"); err != nil {
		return err
	}
	id, err := parseNodeID(args[1])
	if err != nil {
		return err
	}
	ok, err := e.ws.AddGraphNode(args[0], id)
	if err != nil {
		return err
	}
	e.bindMutated(r, args[0])
	if !ok {
		r.Message = fmt.Sprintf("%s: node %d already present", args[0], id)
		return nil
	}
	r.Message = fmt.Sprintf("%s: added node %d (%d pending deltas)",
		args[0], id, len(e.ws.PendingDeltas(args[0])))
	return nil
}
