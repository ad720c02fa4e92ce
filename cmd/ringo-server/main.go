// Command ringo-server runs the Ringo analytics engine as a multi-session
// HTTP service: the big-memory machine stays resident and many analysts
// share it, each in an isolated named session, with cached analytics and
// async jobs for long-running algorithms.
//
// Quickstart:
//
//	ringo-server -addr :7475 &
//	curl -s -X POST localhost:7475/sessions -d '{"id":"demo"}'
//	curl -s -X POST localhost:7475/sessions/demo/query -d '{"cmd":"gen rmat E 12 20000 7"}'
//	curl -s -X POST localhost:7475/sessions/demo/query -d '{"cmd":"tograph G E src dst"}'
//	curl -s -X POST localhost:7475/sessions/demo/jobs  -d '{"cmd":"pagerank PR G"}'
//	curl -s localhost:7475/jobs/j1
//	curl -s -X POST localhost:7475/sessions/demo/query -d '{"cmd":"top PR 5"}'
//
// Whole analyses batch as scripts: POST /sessions/{id}/script runs an
// N-step command file in one round trip under a single session-lock
// acquisition, returning per-step results and timings (docs/SERVER.md has
// the full API reference, docs/COMMANDS.md the script format). Script
// steps that touch host files are refused without -allow-file-io, with the
// offending step named before anything runs.
//
// With -allow-file-io the server can persist and reload whole sessions as
// binary workspace snapshots (POST /sessions/{id}/snapshot and /restore),
// and -restore <file> warm-starts a restarted server from such a snapshot
// before the listener comes up. -restore also accepts an RNGM mapped CSR
// image (written by the save verb): instead of decoding, the graph
// is validated and served in place from mmap as the read-only binding "g",
// turning a restart on a big graph from a decode-bound wait into
// milliseconds (GET /stats reports the file-backed size as mapped_bytes).
//
// Observability (docs/OBSERVABILITY.md): GET /metrics serves the whole
// registry in Prometheus text format; every request logs through log/slog
// (-log-format text|json) with an X-Request-ID correlating response and
// record; -slow-query 250ms adds a structured record for any verb at or
// above the threshold; -debug-addr 127.0.0.1:6060 brings up net/http/pprof
// on a separate listener, never on the API address.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ringo/internal/repl"
	"ringo/internal/server"
)

func main() {
	addr := flag.String("addr", ":7475", "listen address")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "result cache entries (negative disables)")
	workers := flag.Int("workers", server.DefaultWorkers, "async job workers")
	maxSessions := flag.Int("max-sessions", 0, "session cap (0 = unlimited)")
	allowFileIO := flag.Bool("allow-file-io", false, "permit "+strings.Join(repl.FileVerbs(), "/")+" (host filesystem access) over HTTP")
	token := flag.String("token", "", "require 'Authorization: Bearer <token>' on every request (empty = no auth)")
	restorePath := flag.String("restore", "", "warm start: restore this workspace snapshot into a session before serving")
	restoreSession := flag.String("restore-session", "main", "session id the -restore snapshot is loaded into")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	slowQuery := flag.Duration("slow-query", 0, "log any verb or script step at or above this duration (0 disables), e.g. 250ms")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = no profiling listener)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		log.Fatalf("ringo-server: -log-format must be text or json, got %q", *logFormat)
	}
	logger := slog.New(handler)

	srv := server.New(server.Config{
		CacheSize:   *cacheSize,
		Workers:     *workers,
		MaxSessions: *maxSessions,
		AllowFileIO: *allowFileIO,
		AuthToken:   *token,
		Logger:      logger,
		SlowQuery:   *slowQuery,
	})
	defer srv.Close()

	// Profiling stays off the public listener: pprof exposes heap contents
	// and stack traces, so it only comes up on its own address, which an
	// operator can bind to localhost while the API faces the network.
	if *debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("ringo-server debug listener (pprof) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("ringo-server: debug listener: %v", err)
			}
		}()
	}

	if *restorePath != "" {
		if err := srv.WarmStart(*restoreSession, *restorePath); err != nil {
			log.Fatalf("ringo-server: -restore %s: %v", *restorePath, err)
		}
		log.Printf("ringo-server: restored session %q from %s", *restoreSession, *restorePath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("ringo-server listening on %s", *addr)
	if err := server.ListenAndServe(ctx, &http.Server{Addr: *addr, Handler: srv}); err != nil {
		log.Fatalf("ringo-server: %v", err)
	}
	log.Print("ringo-server: drained, shutting down")
}
