// Command ringo-coord fronts a primary ringo-server and N read replicas
// as one endpoint: snapshot-replicated serving with fingerprint-verified
// shipping, verb-classified routing and live failover (docs/CLUSTER.md).
//
// Quickstart — three servers, one coordinator, all on one host:
//
//	ringo-server -addr :7475 -allow-file-io &           # primary
//	ringo-server -addr :7476 -allow-file-io &           # replica 1
//	ringo-server -addr :7477 -allow-file-io &           # replica 2
//	curl -s -X POST localhost:7475/sessions -d '{"id":"main"}'
//	curl -s -X POST localhost:7475/sessions/main/query -d '{"cmd":"gen rmat E 16 500000 7"}'
//	ringo-coord -addr :7070 -primary http://localhost:7475 \
//	    -replicas http://localhost:7476,http://localhost:7477 &
//	curl -s -X POST localhost:7070/sessions/main/query -d '{"cmd":"ls"}'   # served by a replica
//	curl -s localhost:7070/cluster                                        # topology + generations
//
// Replicas must share a filesystem with the primary (same host or shared
// mount): snapshots ship as files at -ship-path. The coordinator serves
// the full ringo-server API — requests it does not classify pass through
// to the primary — plus GET /cluster, POST /cluster/ship, and aggregated
// GET /stats and GET /metrics across every node.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ringo/internal/cluster"
	"ringo/internal/server"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	primary := flag.String("primary", "", "base URL of the primary ringo-server (required)")
	replicas := flag.String("replicas", "", "comma-separated base URLs of replica ringo-servers")
	session := flag.String("session", cluster.DefaultSession, "replicated serving session id")
	shipPath := flag.String("ship-path", "", "snapshot ship file path (default ringo-ship-<session>.rngs in the temp dir); must be reachable by every node")
	token := flag.String("token", "", "bearer token sent on every upstream request")
	eventual := flag.Bool("eventual", false, "serve reads from replicas at their last verified snapshot while re-ships are in flight (default: strict read-your-writes)")
	balance := flag.String("balance", "least", "replica selection: least (least-loaded) or rr (round-robin)")
	healthInterval := flag.Duration("health-interval", cluster.DefaultHealthInterval, "health probe period")
	healthTimeout := flag.Duration("health-timeout", cluster.DefaultHealthTimeout, "per-probe timeout")
	failThreshold := flag.Int("fail-threshold", cluster.DefaultFailThreshold, "consecutive probe failures before a target is marked down")
	maxBackoff := flag.Duration("max-backoff", cluster.DefaultMaxBackoff, "probe backoff cap for down targets")
	statsTTL := flag.Duration("stats-ttl", 2*time.Second, "per-target /stats cache for aggregated metrics (0 = fetch fresh)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	if *primary == "" {
		log.Fatal("ringo-coord: -primary is required")
	}
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		log.Fatalf("ringo-coord: -log-format must be text or json, got %q", *logFormat)
	}

	var replicaURLs []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicaURLs = append(replicaURLs, r)
		}
	}

	coord, err := cluster.New(cluster.Config{
		Primary:        *primary,
		Replicas:       replicaURLs,
		Session:        *session,
		ShipPath:       *shipPath,
		AuthToken:      *token,
		Eventual:       *eventual,
		Balance:        *balance,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		FailThreshold:  *failThreshold,
		MaxBackoff:     *maxBackoff,
		StatsTTL:       *statsTTL,
		Logger:         slog.New(handler),
	})
	if err != nil {
		log.Fatalf("ringo-coord: %v", err)
	}
	defer coord.Close()

	// The bootstrap ship is best-effort: an unreachable replica at boot
	// must not keep the coordinator down — the health loop re-ships it the
	// moment it answers. Only an unreachable primary is fatal (nothing can
	// be served without it).
	if err := coord.Ship(); err != nil {
		if strings.Contains(err.Error(), "snapshot on primary") || strings.Contains(err.Error(), "primary fingerprints") {
			log.Fatalf("ringo-coord: bootstrap ship: %v", err)
		}
		log.Printf("ringo-coord: bootstrap ship incomplete (health loop will retry): %v", err)
	}
	coord.Start()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("ringo-coord listening on %s (primary %s, %d replicas, session %q)",
		*addr, *primary, len(replicaURLs), *session)
	if err := server.ListenAndServe(ctx, &http.Server{Addr: *addr, Handler: coord}); err != nil {
		log.Fatalf("ringo-coord: %v", err)
	}
	log.Print("ringo-coord: drained, shutting down")
}
