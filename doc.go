// Package ringo is a Go reproduction of Ringo, the interactive graph
// analytics system for big-memory machines by Perez, Sosič, Banerjee,
// Puttagunta, Raison, Shah and Leskovec (SIGMOD 2015).
//
// Ringo's thesis is that a single shared-memory machine is the right
// platform for analytics on all but the largest graphs, provided the system
// tightly integrates three things:
//
//   - a relational table engine (column store with persistent row ids) for
//     manipulating raw input data,
//   - a dynamic in-memory graph engine (a hash table of nodes with sorted
//     adjacency vectors) with a large algorithm library, and
//   - fast parallel conversions between the two representations, so the
//     iterative explore-build-analyze loop of data science stays
//     interactive.
//
// This package is a curated façade over the engine: only the verbs of
// Ringo's Python front-end, the session constructors and snapshot/restore
// that the examples and commands use, in the paper's form:
//
//	posts, _ := ringo.LoadTableTSV(schema, "posts.tsv", true)
//	jp, _ := ringo.Select(posts, "Tag", ringo.EQ, "Java")
//	q, _ := ringo.Select(jp, "Type", ringo.EQ, "question")
//	a, _ := ringo.Select(jp, "Type", ringo.EQ, "answer")
//	qa, _ := ringo.Join(q, a, "AcceptedId", "PostId")
//	g, _ := ringo.ToGraph(qa, "UserId-1", "UserId-2")
//	pr := ringo.GetPageRank(g)
//	experts, _ := ringo.TableFromMap(pr, "User", "Scr")
//
// A façade Graph is the read-only CSR view the shell's tograph verb binds,
// and every Get* function runs the verb's kernel over it; mutation is the
// addedge/deledge verbs' business.
//
// Beyond the library façade, the engine is exposed two interactive ways
// over the same evaluator (internal/repl): cmd/ringo is the single-user
// terminal shell, and cmd/ringo-server is a multi-session HTTP service.
// The server gives every analyst an isolated named Workspace guarded by a
// per-session RWMutex (read-only queries run concurrently), shares one LRU
// result cache keyed by object fingerprint + command so repeated analytics
// on unchanged data are answered without recomputation, and accepts
// long-running algorithms as async jobs polled by id. NewEngine, NewServer
// and NewWorkspace construct these pieces programmatically; see README.md
// for the HTTP API and a curl quickstart.
//
// Interactivity rests on the graph representation beneath the result
// cache: every graph binding is its optimized flat-array representation
// (View/UView), built once when the graph is bound and served in place by
// Workspace DirectedView/UndirectedView, so every algorithm over the
// unchanged graph — even a different one — runs straight over resident
// arrays; a directed binding holds its undirected projection, stamped with
// the version it reflects. A mutation is logged against the view and folded into it
// by the next query. The
// package-level Example below walks the load → query → snapshot loop.
//
// Whole analyses batch as scripts — one verb per line, # comments,
// @echo/@time/@continue directives — executed with per-step results and
// timings by RunScript here, the shell's source verb, ringo -script for CI
// and cron, or one POST /sessions/{id}/script round trip holding the
// session lock once for the whole batch (ExampleRunScript shows the
// library form).
//
// See docs/ARCHITECTURE.md for the package map and data flow,
// docs/COMMANDS.md for the shell verb and script reference, docs/SERVER.md
// for the HTTP API, and docs/FORMATS.md for every on-disk byte layout;
// cmd/ringo-bench regenerates the paper's evaluation tables.
package ringo
