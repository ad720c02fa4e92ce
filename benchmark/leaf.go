package main

import (
	"fmt"
	"strconv"
	"strings"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/core"
	"ringo/internal/graph"
	"ringo/internal/repl"
	"ringo/internal/table"
)

// This file is the innermost replay depth. Because the benchmark may not
// edit the program, it cannot put spans inside repl's verb handlers;
// instead each verb the workloads use is spelled out here as the sequence
// of module calls its handler makes, with a span around each call. Replies
// carry the handler's own messages, so the workloads' checks also prove
// that this depth did the same work as the four above it. Verbs that only
// render workspace state (show, ls) go to a real engine on the same
// workspace and have no leaves.

// leaf is one timed call into a module's public function.
type leaf struct {
	layer, name string // module and call: table/select, core/view_fetch, ...
	start, end  int64
	work        int64 // rows, edges or bytes the call handled, for the rate metrics
	under       int   // 1-based index of the enclosing leaf of this command; 0 is the command itself
}

// leafExec keeps its sessions as the engine depth does, bare engines
// sharing one LRU, and evaluates on their workspaces itself.
type leafExec struct{ *engineExec }

func (x leafExec) eval(id, line string) (reply, error) {
	eng := x.engine(id)
	c := &leafCall{ws: eng.Workspace(), eng: eng, cache: prefixCache{id + "|", x.lru}, line: line}
	err := c.run(strings.Fields(line))
	return c.reply, err
}

// leafCall evaluates one command line and collects its leaves.
type leafCall struct {
	ws    *core.Workspace
	eng   *repl.Engine // evaluates the verbs that have no module call to time
	cache prefixCache
	line  string
	reply reply
}

// time runs fn as one leaf; fn reports how much work it handled.
func (c *leafCall) time(layer, name string, under int, fn func() int64) int {
	l := leaf{layer: layer, name: name, under: under, start: now()}
	l.work = fn()
	l.end = now()
	c.reply.leaves = append(c.reply.leaves, l)
	return len(c.reply.leaves)
}

func (c *leafCall) bind(name string, o core.Object) { c.ws.SetWithProvenance(name, o, c.line) }

func (c *leafCall) bindTable(name string, t *table.Table, err error) error {
	if err != nil {
		return err
	}
	c.bind(name, core.Object{Table: t})
	c.reply.message = rowsMsg(name, t.NumRows())
	return nil
}

// view fetches the directed view as core does, and when that fetch rebuilt
// the view, times the same graph.BuildView once more as its child.
func (c *leafCall) view(name string) (v *graph.View, err error) {
	_, before := c.ws.PatchStats()
	fetch := c.time("core", "view_fetch", 0, func() int64 {
		if v, err = c.ws.DirectedView(name); err != nil {
			return 0
		}
		return v.Bytes()
	})
	if _, after := c.ws.PatchStats(); err == nil && after > before {
		if g, gerr := c.ws.Graph(name); gerr == nil {
			c.time("graph", "view_build", fetch, func() int64 { return graph.BuildView(g).Bytes() })
		}
	}
	return v, err
}

// cached probes the result cache the way the engine's analytics verbs do.
func (c *leafCall) cached(verb, input string) (key string, hit repl.CachedResult, ok bool) {
	fp, _ := c.ws.Fingerprint(input)
	key = verb + "|" + fp
	hit, ok = c.cache.Get(key)
	return key, hit, ok
}

var cmpOps = map[string]table.CmpOp{
	"==": table.EQ, "=": table.EQ, "!=": table.NE, "<": table.LT, "<=": table.LE, ">": table.GT, ">=": table.GE,
}

func parseValue(tok string) any {
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return f
	}
	return tok
}

// run spells out the engine's handler for one verb.
func (c *leafCall) run(f []string) (err error) {
	verb, a := f[0], f[1:]
	input := func(i int) (t *table.Table) {
		if err == nil {
			t, err = c.ws.Table(a[i])
		}
		return t
	}
	rows := func(t *table.Table) int64 { return int64(t.NumRows()) }
	switch verb {
	case "load":
		var schema table.Schema
		types := map[string]table.Type{"int": table.Int, "float": table.Float, "string": table.String}
		for _, tok := range a[2:] {
			name, typ, _ := strings.Cut(tok, ":")
			schema = append(schema, table.Column{Name: name, Type: types[typ]})
		}
		var t *table.Table
		c.time("table", "load_tsv", 0, func() int64 {
			if t, err = table.LoadTSVFile(a[1], schema, false); err != nil {
				return 0
			}
			return rows(t)
		})
		return c.bindTable(a[0], t, err)

	case "select":
		t := input(1)
		if err != nil {
			return err
		}
		op, val := cmpOps[a[3]], parseValue(strings.Join(a[4:], " "))
		var out *table.Table
		c.time("table", "select", 0, func() int64 {
			// As the engine does, an equality filter tries the cached index first.
			if op == table.EQ || op == table.NE {
				if idx, ierr := c.ws.TableEqIndex(a[1], a[2]); ierr == nil {
					if bm, ok := idx.Lookup(t, op, val); ok {
						out, err = t.SelectBitmap(bm)
						return rows(t)
					}
				}
			}
			out, err = t.Select(a[2], op, val)
			return rows(t)
		})
		return c.bindTable(a[0], out, err)

	case "filter", "project":
		t := input(1)
		if err != nil {
			return err
		}
		var out *table.Table
		c.time("table", verb, 0, func() int64 {
			if verb == "filter" {
				out, err = t.SelectExpr(strings.Join(a[2:], " "))
			} else {
				out, err = t.Project(a[2:]...)
			}
			return rows(t)
		})
		return c.bindTable(a[0], out, err)

	case "groupcount":
		t := input(1)
		if err != nil {
			return err
		}
		var out *table.Table
		c.time("table", "groupcount", 0, func() int64 { out, err = t.Aggregate(a[2:], table.Count, "", "count"); return rows(t) })
		if err == nil {
			c.bind(a[0], core.Object{Table: out})
			c.reply.message = fmt.Sprintf("%s: %d groups", a[0], out.NumRows())
		}
		return err

	case "order":
		t := input(0)
		if err != nil {
			return err
		}
		c.time("table", "order", 0, func() int64 { err = t.OrderBy(a[1] == "desc", a[2:]...); return rows(t) })
		c.ws.Touch(a[0])
		return err

	case "join":
		l, r := input(1), input(2)
		if err != nil {
			return err
		}
		var out *table.Table
		c.time("table", "join", 0, func() int64 { out, err = l.Join(r, a[3], a[4]); return rows(l) + rows(r) })
		if err == nil {
			c.bind(a[0], core.Object{Table: out})
			c.reply.message = fmt.Sprintf("%s: %d rows (%s)", a[0], out.NumRows(), strings.Join(out.ColNames(), ", "))
		}
		return err

	case "tograph":
		t := input(1)
		if err != nil {
			return err
		}
		var g *graph.Directed
		c.time("conv", "to_directed", 0, func() int64 { g, err = conv.ToDirected(t, a[2], a[3]); return rows(t) })
		if err == nil {
			c.bind(a[0], core.Object{Graph: g})
			c.reply.message = fmt.Sprintf("%s: %d nodes, %d edges", a[0], g.NumNodes(), g.NumEdges())
		}
		return err

	case "pagerank":
		key, hit, ok := c.cached("pagerank", a[1])
		pr := hit.Scores
		if !ok {
			v, err := c.view(a[1])
			if err != nil {
				return err
			}
			c.time("algo", "pagerank", 0, func() int64 {
				pr = algo.PageRankView(v, algo.DefaultDamping, 10)
				return 10 * v.NumEdges()
			})
			c.cache.Put(key, repl.CachedResult{Scores: pr})
		}
		c.bind(a[0], core.Object{Scores: pr})
		c.reply.message = fmt.Sprintf("%s: %d nodes scored", a[0], len(pr))
		return nil

	case "scores2table":
		sc, err := c.ws.Scores(a[1])
		if err != nil {
			return err
		}
		var t *table.Table
		c.time("core", "scores_to_table", 0, func() int64 { t, err = core.TableFromMap(sc, a[2], a[3]); return int64(len(sc)) })
		return c.bindTable(a[0], t, err)

	case "algo":
		key, hit, ok := c.cached("algo "+a[1], a[0])
		if ok {
			c.reply.message = hit.Message
			return nil
		}
		switch a[1] {
		case "wcc", "scc":
			v, err := c.view(a[0])
			if err != nil {
				return err
			}
			kernel, kind := algo.WCCView, "weak"
			if a[1] == "scc" {
				kernel, kind = algo.SCCView, "strong"
			}
			var comp algo.Components
			c.time("algo", a[1], 0, func() int64 { comp = kernel(v); return v.NumEdges() })
			c.reply.message = fmt.Sprintf("%d %s components, largest %d", comp.Count, kind, comp.MaxSize)
		case "triangles":
			// Not put in the cache, unlike the depths above: the traced
			// run's repeated calls are there to time the kernel.
			uv, err := c.ws.UndirectedView(a[0])
			if err != nil {
				return err
			}
			var n int64
			c.time("algo", "triangles", 0, func() int64 { n = algo.TrianglesView(uv); return uv.NumEdges() })
			c.reply.message = fmt.Sprintf("%d triangles", n)
			return nil
		default:
			return fmt.Errorf("the leaf depth does not spell out algo %q", a[1])
		}
		c.cache.Put(key, repl.CachedResult{Message: c.reply.message})
		return nil

	case "top":
		sc, err := c.ws.Scores(a[0])
		if err != nil {
			return err
		}
		k, err := strconv.Atoi(a[1])
		if err != nil {
			return err
		}
		var best []algo.Scored
		c.time("algo", "topk", 0, func() int64 { best = algo.TopK(sc, k); return int64(len(sc)) })
		for i, s := range best {
			c.reply.rows = append(c.reply.rows, []string{strconv.Itoa(i + 1), strconv.FormatInt(s.ID, 10), strconv.FormatFloat(s.Score, 'f', 6, 64)})
		}
		return nil

	case "addedge", "deledge":
		src, err := strconv.ParseInt(a[1], 10, 64)
		if err != nil {
			return err
		}
		dst, err := strconv.ParseInt(a[2], 10, 64)
		if err != nil {
			return err
		}
		mutate, done := c.ws.AddGraphEdge, "added"
		if verb == "deledge" {
			mutate, done = c.ws.DelGraphEdge, "deleted"
		}
		var changed bool
		c.time("core", verb, 0, func() int64 { changed, err = mutate(a[0], src, dst); return 1 })
		if err != nil || !changed {
			return fmt.Errorf("%s changed nothing: %v", c.line, err)
		}
		c.reply.message = fmt.Sprintf("%s: %s edge %d -> %d (%d pending deltas)", a[0], done, src, dst, len(c.ws.PendingDeltas(a[0])))
		return nil

	case "restore":
		c.time("snapshot", "restore", 0, func() int64 { err = c.ws.RestoreFile(a[0]); return 1 })
		c.reply.message = fmt.Sprintf("restored %d objects from %s", len(c.ws.Names()), a[0])
		return err
	}
	// show and ls only render workspace state: no module call to time.
	res, err := c.eng.Eval(c.line)
	if err != nil {
		return err
	}
	c.reply.message, c.reply.rows = res.Message, res.Rows
	return nil
}
