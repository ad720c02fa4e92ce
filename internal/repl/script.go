package repl

// Script execution: the batch counterpart of Eval. An analysis session in
// Ringo is a chain of verbs, and paying one HTTP round trip and one session
// lock acquisition per verb is exactly the per-operation overhead the
// paper's interactive model argues against. A Script is that chain as a
// first-class artifact — parsed once, classified as a whole (read-only?
// touches files? replaces the workspace?), executed in one pass with
// per-step wall-clock timings, and shareable as a plain text file.
//
// # Script format
//
// One verb per line, in the exact syntax of the interactive shell
// (docs/COMMANDS.md). Blank lines and lines starting with '#' are skipped.
// A line reading "quit" or "exit" ends the script early, so a transcript
// saved from an interactive session runs unmodified. Lines starting with
// '@' are directives that configure the whole run:
//
//	@echo      front-ends print each command before its result
//	@time      front-ends print each step's wall-clock time
//	@continue  keep executing after a failed step (default: stop, and
//	           count the rest as skipped)
//
// Unknown directives are parse errors, so a typo fails loudly before any
// step runs.

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// Step is one executable command of a parsed script: the verb line plus the
// 1-based source line it came from, so errors point back into the file.
type Step struct {
	Cmd    string `json:"cmd"`
	LineNo int    `json:"line"`
}

// Script is a parsed command batch plus its run-wide directive flags.
type Script struct {
	Steps []Step
	// Echo and Time are presentation hints for front-ends (the engine
	// records timings regardless); Continue selects run-all over
	// stop-on-error.
	Echo     bool
	Time     bool
	Continue bool
}

// ParseScript parses script text into executable steps. It validates only
// the line structure and directives; verb existence and arity surface when
// a step runs, exactly as they would typed into a shell.
func ParseScript(src string) (*Script, error) {
	s := &Script{}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		lineNo := i + 1
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "@") {
			fields := strings.Fields(line)
			if len(fields) > 1 {
				return nil, fmt.Errorf("script line %d: directive %s takes no arguments", lineNo, fields[0])
			}
			switch fields[0] {
			case "@echo":
				s.Echo = true
			case "@time":
				s.Time = true
			case "@continue":
				s.Continue = true
			default:
				return nil, fmt.Errorf("script line %d: unknown directive %q (want @echo, @time or @continue)", lineNo, fields[0])
			}
			continue
		}
		// Front-end verbs end a script instead of erroring, so a saved
		// interactive transcript is directly sourceable.
		if line == "quit" || line == "exit" {
			break
		}
		s.Steps = append(s.Steps, Step{Cmd: line, LineNo: lineNo})
	}
	return s, nil
}

// ReadOnly reports whether every step of the script only reads workspace
// state — the whole batch can then run under a shared lock.
func (s *Script) ReadOnly() bool {
	for _, st := range s.Steps {
		if !ReadOnly(st.Cmd) {
			return false
		}
	}
	return true
}

// TouchesFiles returns the index of the first step that reads or writes
// host files, or -1. Hosts that refuse filesystem access reject the whole
// script up front, naming that step.
func (s *Script) TouchesFiles() int {
	for i, st := range s.Steps {
		if TouchesFiles(st.Cmd) {
			return i
		}
	}
	return -1
}

// StepResult is the outcome of one executed script step: either Result or
// Error is set. ElapsedNS is the step's wall-clock time, which includes
// lock-free engine dispatch but no queueing — the per-step cost a batched
// run amortizes is visible by comparing against per-query round trips.
type StepResult struct {
	// Index is the 0-based position among the script's executable steps;
	// LineNo is the 1-based line in the source text.
	Index     int     `json:"index"`
	LineNo    int     `json:"line"`
	Cmd       string  `json:"cmd"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedNS int64   `json:"elapsed_ns"`
}

// ScriptResult aggregates a script run: every executed step in order, the
// ok/failed/skipped accounting, and the batch's total wall time.
type ScriptResult struct {
	Steps []StepResult `json:"steps"`
	OK    int          `json:"ok"`
	// Failed counts failed steps (at most 1 without @continue); Skipped
	// counts steps never executed after a stop-on-error failure.
	Failed    int   `json:"failed"`
	Skipped   int   `json:"skipped"`
	ElapsedNS int64 `json:"elapsed_ns"`
	// Echo and Time carry the script's presentation directives out to
	// front-ends rendering the result.
	Echo bool `json:"echo,omitempty"`
	Time bool `json:"time,omitempty"`
}

// Err returns nil if every executed step succeeded, or an error naming the
// first failed step (1-based, with its source line and command).
func (sr *ScriptResult) Err() error {
	for _, st := range sr.Steps {
		if st.Error != "" {
			return fmt.Errorf("step %d (line %d) %q: %s", st.Index+1, st.LineNo, st.Cmd, st.Error)
		}
	}
	return nil
}

// EvalScript executes a parsed script against the engine's workspace, one
// step at a time in order. Execution stops at the first failing step unless
// the script declared @continue; the failure itself is recorded per step
// (and summarized by ScriptResult.Err), never returned — the batch result
// always describes exactly what ran. The engine adds no locking, so a host
// wanting batch atomicity wraps the whole call in one lock acquisition,
// choosing shared vs exclusive via Script.ReadOnly — that single
// acquisition, against one per step, is the point of batching.
func (e *Engine) EvalScript(s *Script) *ScriptResult {
	sr := &ScriptResult{Echo: s.Echo, Time: s.Time}
	start := time.Now()
	for i, st := range s.Steps {
		stepStart := time.Now()
		res, err := e.Eval(st.Cmd)
		step := StepResult{
			Index:     i,
			LineNo:    st.LineNo,
			Cmd:       st.Cmd,
			ElapsedNS: time.Since(stepStart).Nanoseconds(),
		}
		if err != nil {
			step.Error = err.Error()
			sr.Failed++
		} else {
			step.Result = res
			sr.OK++
		}
		sr.Steps = append(sr.Steps, step)
		if err != nil && !s.Continue {
			sr.Skipped = len(s.Steps) - i - 1
			break
		}
	}
	sr.ElapsedNS = time.Since(start).Nanoseconds()
	return sr
}

// maxSourceDepth bounds source-within-source nesting so a script that
// sources itself fails instead of recursing forever.
const maxSourceDepth = 8

// cmdSource runs a script file through EvalScript and reports one row per
// executed step. Per-step wall times stay off the Result (they are not part
// of result identity across front-ends); batch front-ends that want them
// use EvalScript or the server's /script endpoint directly.
func (e *Engine) cmdSource(r *Result, args []string) error {
	if err := need(args, 1, "source <file>"); err != nil {
		return err
	}
	if e.sourceDepth >= maxSourceDepth {
		return fmt.Errorf("source nesting deeper than %d (does the script source itself?)", maxSourceDepth)
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	s, err := ParseScript(string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	e.sourceDepth++
	// Decrement under defer: a panicking step unwinds past this frame (the
	// server recovers it and keeps the session alive), and the counter must
	// not stay elevated for the engine's lifetime.
	defer func() { e.sourceDepth-- }()
	sr := e.EvalScript(s)
	r.Columns = []string{"step", "line", "status", "result"}
	for _, st := range sr.Steps {
		status, msg := "ok", stepMessage(st.Result)
		if st.Error != "" {
			status, msg = "error", st.Error
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", st.Index+1),
			fmt.Sprintf("%d", st.LineNo),
			status,
			st.Cmd + " -> " + msg,
		})
	}
	// Stop-on-error scripts surface the failure as the command's error,
	// naming the step (ringo -script turns this into a non-zero exit). An
	// @continue script ran to completion by design, so its failures are
	// reported in the rows — the error rows — and the summary, not by
	// discarding the result.
	if err := sr.Err(); err != nil && !s.Continue {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	if sr.Failed > 0 {
		r.Message = fmt.Sprintf("%s: %d steps ok, %d failed", args[0], sr.OK, sr.Failed)
	} else {
		r.Message = fmt.Sprintf("%s: %d steps ok", args[0], sr.OK)
	}
	return nil
}

// stepMessage summarizes a step's Result for the source listing: the
// message when the verb produced one, otherwise the binding or row count.
func stepMessage(res *Result) string {
	switch {
	case res == nil:
		return ""
	case res.Message != "":
		return res.Message
	case len(res.Rows) > 0:
		return fmt.Sprintf("%d rows", len(res.Rows))
	case res.Bound != "":
		return fmt.Sprintf("bound %s (%s)", res.Bound, res.Kind)
	default:
		return "ok"
	}
}
