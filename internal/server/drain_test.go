package server

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestListenAndServeDrains cancels the serving context while a request is
// blocked in its handler: the listener must refuse new connections at once,
// the blocked request must still complete with 200, and the helper must
// return nil once it has, leaving both server timeouts set.
func TestListenAndServeDrains(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, hs, ln) }()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/block")
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepts connections after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("serve returned %v while a request was in flight", err)
	default:
	}

	close(release)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after a clean drain, want nil", err)
	}
	if hs.IdleTimeout != IdleTimeout || hs.ReadHeaderTimeout != ReadHeaderTimeout {
		t.Fatalf("timeouts (%v, %v), want (%v, %v)", hs.ReadHeaderTimeout, hs.IdleTimeout, ReadHeaderTimeout, IdleTimeout)
	}
}
