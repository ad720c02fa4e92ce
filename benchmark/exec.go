package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"ringo/internal/core"
	"ringo/internal/repl"
	"ringo/internal/server"
)

// reply is what a command returned, reduced to what the checks read.
type reply struct {
	message string
	rows    [][]string
	raw     []byte // the HTTP body at the two HTTP depths, nil below them
	leaves  []leaf // leaf depth only: the module calls the command made
}

// executor is one public entry depth of the program. The timed run uses
// only the HTTP depth; the traced run replays the same ops on each.
type executor interface {
	create(id string) error
	drop(id string) error
	eval(id, line string) (reply, error)
	close()
}

// depths are the public entry depths, outermost first. A span's parent is
// the span of the same command one depth up.
var depths = []struct {
	layer string
	new   func() executor
}{
	{"http", func() executor { return newHTTPExec() }},
	{"handler", func() executor { return &handlerExec{srv: newServer()} }},
	{"session", func() executor { return &sessionExec{srv: newServer()} }},
	{"engine", func() executor { return newEngineExec() }},
	{"leaf", func() executor { return leafExec{newEngineExec()} }},
}

func newServer() *server.Server { return server.New(server.Config{AllowFileIO: true}) }

func queryBody(line string) io.Reader {
	b, _ := json.Marshal(map[string]string{"cmd": line}) // a string map always marshals
	return bytes.NewReader(b)
}

// decodeReply turns a query response into a reply; a non-2xx status is the
// command's error.
func decodeReply(status int, body []byte) (reply, error) {
	var res struct {
		Message string     `json:"message"`
		Rows    [][]string `json:"rows"`
		Error   string     `json:"error"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return reply{}, fmt.Errorf("status %d: undecodable body: %w", status, err)
	}
	if status < 200 || status > 299 {
		return reply{}, fmt.Errorf("status %d: %s", status, res.Error)
	}
	return reply{message: res.Message, rows: res.Rows, raw: body}, nil
}

// httpExec drives the server over a real loopback listener.
type httpExec struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func newHTTPExec() *httpExec {
	srv := newServer()
	ts := httptest.NewServer(srv)
	return &httpExec{srv: srv, ts: ts, client: ts.Client()}
}

func (x *httpExec) do(method, path string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(method, x.ts.URL+path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := x.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (x *httpExec) expect(want int, method, path string, body io.Reader) error {
	status, b, err := x.do(method, path, body)
	if err == nil && status != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
	}
	return err
}

func (x *httpExec) create(id string) error {
	return x.expect(http.StatusCreated, "POST", "/sessions", strings.NewReader(`{"id":"`+id+`"}`))
}

func (x *httpExec) drop(id string) error {
	return x.expect(http.StatusOK, "DELETE", "/sessions/"+id, nil)
}

func (x *httpExec) eval(id, line string) (reply, error) {
	status, b, err := x.do("POST", "/sessions/"+id+"/query", queryBody(line))
	if err != nil {
		return reply{}, err
	}
	return decodeReply(status, b)
}

// counters reads the unlabelled series of GET /metrics.
func (x *httpExec) counters() (map[string]float64, error) {
	status, b, err := x.do("GET", "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func (x *httpExec) close() {
	x.ts.Close()
	x.srv.Close()
}

// handlerExec calls ServeHTTP in memory: the HTTP depth minus the socket.
type handlerExec struct{ srv *server.Server }

func (x *handlerExec) serve(method, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	x.srv.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec
}

func (x *handlerExec) create(id string) error {
	if rec := x.serve("POST", "/sessions", strings.NewReader(`{"id":"`+id+`"}`)); rec.Code != http.StatusCreated {
		return fmt.Errorf("create session: status %d", rec.Code)
	}
	return nil
}

func (x *handlerExec) drop(id string) error {
	if rec := x.serve("DELETE", "/sessions/"+id, nil); rec.Code != http.StatusOK {
		return fmt.Errorf("drop session: status %d", rec.Code)
	}
	return nil
}

func (x *handlerExec) eval(id, line string) (reply, error) {
	rec := x.serve("POST", "/sessions/"+id+"/query", queryBody(line))
	return decodeReply(rec.Code, rec.Body.Bytes())
}

func (x *handlerExec) close() { x.srv.Close() }

// sessionExec calls Server.Eval: the handler depth minus routing and JSON.
type sessionExec struct{ srv *server.Server }

func (x *sessionExec) create(id string) error {
	_, err := x.srv.CreateSession(id)
	return err
}

func (x *sessionExec) drop(id string) error {
	if !x.srv.DropSession(id) {
		return fmt.Errorf("no session %q", id)
	}
	return nil
}

func (x *sessionExec) eval(id, line string) (reply, error) {
	res, err := x.srv.Eval(id, line)
	if err != nil {
		return reply{}, err
	}
	return reply{message: res.Message, rows: res.Rows}, nil
}

func (x *sessionExec) close() { x.srv.Close() }

// prefixCache gives each bare-engine session its own key space in one
// shared LRU, as the server does, so equal fingerprints in two sessions'
// workspaces cannot hit each other's entries.
type prefixCache struct {
	prefix string
	lru    *server.LRU
}

func (c prefixCache) Get(key string) (repl.CachedResult, bool) { return c.lru.Get(c.prefix + key) }
func (c prefixCache) Put(key string, v repl.CachedResult)      { c.lru.Put(c.prefix+key, v) }

// engineExec calls repl.Engine.Eval on bare workspaces: the session depth
// minus the session table, the lock and the file gate. The result cache is
// the server's own LRU type, so cached verbs still hit.
type engineExec struct {
	mu      sync.Mutex
	lru     *server.LRU
	engines map[string]*repl.Engine
}

func newEngineExec() *engineExec {
	return &engineExec{lru: server.NewLRU(server.DefaultCacheSize), engines: map[string]*repl.Engine{}}
}

func (x *engineExec) create(id string) error {
	eng := repl.New(core.NewWorkspace())
	eng.SetCache(prefixCache{id + "|", x.lru})
	x.mu.Lock()
	x.engines[id] = eng
	x.mu.Unlock()
	return nil
}

func (x *engineExec) drop(id string) error {
	x.mu.Lock()
	delete(x.engines, id)
	x.mu.Unlock()
	x.lru.DeletePrefix(id + "|")
	return nil
}

func (x *engineExec) engine(id string) *repl.Engine {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.engines[id]
}

func (x *engineExec) eval(id, line string) (reply, error) {
	res, err := x.engine(id).Eval(line)
	if err != nil {
		return reply{}, err
	}
	return reply{message: res.Message, rows: res.Rows}, nil
}

func (x *engineExec) close() {}

var processStart = time.Now()

// now is the span clock: nanoseconds since the process started.
func now() int64 { return int64(time.Since(processStart)) }
