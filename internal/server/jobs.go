package server

import (
	"fmt"
	"sort"

	"ringo/internal/obs"
	"sync"
	"time"

	"ringo/internal/repl"
)

// Job states: a job moves queued -> running -> done | failed.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobView is the externally visible snapshot of an async job. Exactly one
// of Result (single-command jobs) and ScriptResult (script jobs) is set
// once the job finishes; for script jobs Cmd is a synthesized
// "script (N steps)" label so job listings stay light.
type JobView struct {
	ID           string             `json:"id"`
	Session      string             `json:"session"`
	Cmd          string             `json:"cmd"`
	State        string             `json:"state"`
	Result       *repl.Result       `json:"result,omitempty"`
	ScriptResult *repl.ScriptResult `json:"script_result,omitempty"`
	Error        string             `json:"error,omitempty"`
	Created      time.Time          `json:"created"`
	Started      *time.Time         `json:"started,omitempty"`
	Finished     *time.Time         `json:"finished,omitempty"`
}

type job struct {
	mu      sync.Mutex
	id      string
	seq     int
	sess    *session
	session string
	cmd     string
	// script marks a batch job; the worker routes it through
	// evalScriptOn instead of evalOn and fills scriptResult.
	script       *repl.Script
	state        string
	result       *repl.Result
	scriptResult *repl.ScriptResult
	err          string
	created      time.Time
	started      time.Time
	finished     time.Time
}

func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, Session: j.session, Cmd: j.cmd, State: j.state,
		Result: j.result, ScriptResult: j.scriptResult, Error: j.err, Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// jobRunner owns the job registry and the worker pool that drains the
// queue. Workers execute jobs through Server.evalOn against the session
// instance captured at submit time, so a job takes the same per-session
// lock as a synchronous query: a long-running mutation serializes with
// other commands on its session but never blocks an HTTP connection or
// another session.
type jobRunner struct {
	srv     *Server
	queue   chan *job
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job ids oldest-first, for retention pruning
	retain  int      // terminal-job retention cap (tests shrink it)
	nextID  int
	closed  bool
	drained sync.WaitGroup

	// Lifecycle metrics, registered on the server's obs registry. The
	// gauges track current queue/run occupancy; the counters are
	// cumulative over the server's lifetime, which is what fixes the
	// historical /stats undercount: the old counts() walked the retained
	// job registry, so once pruning kicked in, terminal jobs — notably
	// failed script jobs whose partial batches kept them worth retaining
	// — silently vanished from every aggregate.
	queued    *obs.Gauge
	running   *obs.Gauge
	done      *obs.Counter
	failed    *obs.Counter
	submitted *obs.Counter
}

// maxRetainedJobs bounds the job registry: once exceeded, the oldest
// terminal (done/failed) jobs are forgotten so a long-lived server does
// not accumulate job history without bound.
const maxRetainedJobs = 1024

func newJobRunner(srv *Server, workers int) *jobRunner {
	reg := srv.reg
	r := &jobRunner{
		srv:       srv,
		queue:     make(chan *job, jobQueueDepth),
		jobs:      make(map[string]*job),
		retain:    maxRetainedJobs,
		queued:    reg.Gauge(metricJobsQueued, "Jobs waiting for a worker."),
		running:   reg.Gauge(metricJobsRunning, "Jobs currently executing."),
		done:      reg.Counter(metricJobsDone, "Jobs completed successfully since startup."),
		failed:    reg.Counter(metricJobsFailed, "Jobs failed since startup (including partial script batches)."),
		submitted: reg.Counter(metricJobsSubmitted, "Jobs accepted since startup."),
	}
	r.drained.Add(workers)
	for i := 0; i < workers; i++ {
		go r.work()
	}
	return r
}

// submit enqueues a job: a single command when script is nil, a batch
// otherwise (cmd then carries the display label).
func (r *jobRunner) submit(sess *session, cmd string, script *repl.Script) (*job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("server closed")
	}
	r.nextID++
	j := &job{
		id:      fmt.Sprintf("j%d", r.nextID),
		seq:     r.nextID,
		sess:    sess,
		session: sess.id,
		cmd:     cmd,
		script:  script,
		state:   JobQueued,
		created: time.Now(),
	}
	// The non-blocking send happens under r.mu: close() flips r.closed
	// under the same lock before closing the channel, so this send can
	// never race with the close and panic.
	select {
	case r.queue <- j:
	default:
		return nil, fmt.Errorf("job queue full (%d pending)", jobQueueDepth)
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.submitted.Inc()
	r.queued.Inc()
	if log := r.srv.logger; log != nil {
		log.Info("job queued", "id", j.id, "session", j.session, "cmd", j.cmd)
	}
	r.pruneLocked()
	return j, nil
}

// pruneLocked forgets the oldest terminal jobs beyond the retention cap.
// Queued and running jobs are never pruned. Pruning only affects the
// GET /jobs listing — the lifecycle counters are cumulative, so pruned
// jobs still count in every aggregate. Caller holds r.mu.
func (r *jobRunner) pruneLocked() {
	for len(r.jobs) > r.retain {
		pruned := false
		for i, id := range r.order {
			j := r.jobs[id]
			j.mu.Lock()
			terminal := j.state == JobDone || j.state == JobFailed
			j.mu.Unlock()
			if terminal {
				delete(r.jobs, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return
		}
	}
}

func (r *jobRunner) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

func (r *jobRunner) list(session string) []JobView {
	r.mu.Lock()
	jobs := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		v := j.snapshot()
		if session == "" || v.Session == session {
			views = append(views, v)
		}
	}
	return views
}

func (r *jobRunner) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

func (r *jobRunner) work() {
	defer r.drained.Done()
	for j := range r.queue {
		// During shutdown the remaining queue is failed, not run: an
		// operator stopping the server must not wait out a backlog of
		// multi-minute analytics.
		if r.isClosed() {
			j.mu.Lock()
			if j.state == JobQueued {
				j.state = JobFailed
				j.err = "server closed before job ran"
				j.finished = time.Now()
				r.queued.Dec()
				r.failed.Inc()
			}
			j.mu.Unlock()
			continue
		}
		j.mu.Lock()
		if j.state != JobQueued {
			j.mu.Unlock()
			continue
		}
		j.state = JobRunning
		j.started = time.Now()
		r.queued.Dec()
		r.running.Inc()
		j.mu.Unlock()

		// Run against the session instance captured at submit time — if
		// the session was dropped (even if a same-named one now exists),
		// the job fails rather than touching the newcomer's workspace.
		var res *repl.Result
		var scriptRes *repl.ScriptResult
		var err error
		if cur, ok := r.srv.session(j.session); !ok || cur != j.sess {
			err = fmt.Errorf("session %q was dropped before the job ran", j.session)
		} else if j.script != nil {
			scriptRes, err = r.srv.evalScriptOn(j.sess, j.script)
			// A failed step fails the job, but the partial batch result
			// stays attached: the poller sees which steps ran and why
			// execution stopped.
			if err == nil {
				err = scriptRes.Err()
			}
		} else {
			res, err = r.srv.evalOn(j.sess, j.cmd)
		}

		j.mu.Lock()
		j.finished = time.Now()
		j.scriptResult = scriptRes
		r.running.Dec()
		if err != nil {
			j.state = JobFailed
			j.err = err.Error()
			r.failed.Inc()
		} else {
			j.state = JobDone
			j.result = res
		}
		state, errMsg := j.state, j.err
		elapsed := j.finished.Sub(j.started)
		j.mu.Unlock()
		if state == JobDone {
			r.done.Inc()
		}
		if log := r.srv.logger; log != nil {
			attrs := []any{"id", j.id, "session", j.session, "cmd", j.cmd, "state", state, "elapsed", elapsed}
			if errMsg != "" {
				attrs = append(attrs, "error", errMsg)
			}
			log.Info("job finished", attrs...)
		}
	}
}

// close stops accepting jobs, lets in-flight jobs finish, and fails the
// queued backlog without running it.
func (r *jobRunner) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.queue)
	r.drained.Wait()
}
