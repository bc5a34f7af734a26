// Package serve runs the experiment suite as a resident service: one
// warm exp.Suite — scheduler, warm machine pool and seed-keyed result
// cache — behind a JSON-lines request/response protocol on an arbitrary
// reader/writer pair (the CLI wires stdin/stdout) and, optionally, an
// HTTP handler carrying the same protocol one request per POST body.
//
// One request is one JSON object on one line; one response is one JSON
// object on one line. Requests are matched to responses by the caller's
// opaque id — response order across concurrent requests is unspecified.
// Malformed or invalid input yields a structured error response, never a
// process exit: the paper's tables are served to many callers from one
// process, so a hostile line must not take the warm cache with it.
//
// Identical concurrent requests coalesce: the first becomes the leader
// and computes, the rest wait for its bytes, and underneath the suite's
// singleflight result cache guarantees each simulation cell is computed
// exactly once. Results are bit-for-bit deterministic for the server's
// (seed, scale), so a coalesced response is byte-identical to what any
// of the herd would have computed alone.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	xennuma "repro"
	"repro/internal/advisor"
	"repro/internal/exp"
)

// Request is one line of the protocol, and the request `xnuma sweep`
// and `xnuma advise` build from argv. Unknown fields are rejected, so a
// typo fails loudly instead of silently running a default sweep.
type Request struct {
	// ID is the caller's opaque correlation token, echoed verbatim in
	// the response. Optional; at most maxIDLen bytes.
	ID string `json:"id,omitempty"`
	// Op selects the operation: "sweep", "advise", "policies", "stats",
	// "health".
	Op string `json:"op"`
	// App / Apps name the applications a sweep or advise covers. App is
	// shorthand for a single-element Apps; a lone "all" expands to every
	// workload. Exactly one of the two may be set for sweep.
	App  string   `json:"app,omitempty"`
	Apps []string `json:"apps,omitempty"`
	// Seeds repeats a sweep across N consecutive seeds (the
	// seed-stability table), at most maxSeeds; 0 and 1 mean a
	// single-seed sweep.
	Seeds int `json:"seeds,omitempty"`
	// Bind selects the per-node bind:<n> placement sweep instead of the
	// policy-registry sweep. Exactly one app, by App or Apps; excludes
	// seeds.
	Bind bool `json:"bind,omitempty"`
	// Markdown renders the response tables as Markdown instead of ASCII.
	Markdown bool `json:"md,omitempty"`
	// Target selects the advise platform: "xen" (default) or "linux".
	Target string `json:"target,omitempty"`
}

// Response is one line of the protocol's answer stream.
type Response struct {
	ID string `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Error is set when OK is false; the process never exits on a bad
	// request.
	Error *ErrorInfo `json:"error,omitempty"`
	// Result is the op-specific payload: {"tables": [...]} for
	// sweep/advise, {"policies": [...]}, {"stats": {...}}.
	Result json.RawMessage `json:"result,omitempty"`
}

// ErrorInfo is a structured protocol error.
type ErrorInfo struct {
	// Code is machine-readable: "parse", "bad_request", "overflow",
	// "timeout", "unavailable" or "internal".
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, set on "unavailable", hints how long the caller
	// should back off before retrying (the HTTP face mirrors it in a
	// Retry-After header).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func errorf(code, format string, args ...any) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)}
}

// TableJSON is one rendered experiment table: the structured cells plus
// Text, the exact ASCII (or Markdown) rendering the one-shot CLI would
// print — so served output is byte-comparable to `xnuma sweep`.
type TableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	Text   string     `json:"text"`
}

func toTableJSON(t *exp.Table, markdown bool) TableJSON {
	text := t.Render()
	if markdown {
		text = t.RenderMarkdown()
	}
	return TableJSON{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes, Text: text}
}

// Protocol limits: a line (request) is capped so a hostile client
// cannot balloon the resident process, and ids stay short enough to
// echo harmlessly.
const (
	maxLineBytes = 1 << 20
	maxIDLen     = 256
	maxSeeds     = 64
)

// decodeRequest parses and validates one request line. It returns a
// structured error — never panics — for malformed JSON, unknown fields
// or ops, unknown applications and invalid parameter combinations; on
// error the partially decoded ID (if any) is still usable for the
// response envelope. The returned request is normalized (see
// Normalize), so two spellings of the same question share one
// coalescing key.
func decodeRequest(line []byte) (Request, *ErrorInfo) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, errorf("parse", "invalid request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errorf("parse", "trailing data after request object")
	}
	if len(req.ID) > maxIDLen {
		req.ID = ""
		return req, errorf("bad_request", "id longer than %d bytes", maxIDLen)
	}
	if err := req.Normalize(); err != nil {
		return req, errorf("bad_request", "%v", err)
	}
	return req, nil
}

// Normalize validates the op-specific parameters and canonicalizes the
// request in place: App folded into Apps, a lone "all" expanded to
// every workload, defaults applied. It is the one rule set for sweep
// and advise: the protocol decoder and `xnuma sweep`/`advise` both call
// it, so the CLI and the service accept the same questions.
func (r *Request) Normalize() error {
	switch r.Op {
	case "sweep":
		if err := r.resolveApps(false); err != nil {
			return err
		}
		if r.Seeds < 0 {
			return errors.New("seeds must be >= 0")
		}
		if r.Seeds > maxSeeds {
			return fmt.Errorf("seeds capped at %d", maxSeeds)
		}
		if r.Seeds == 0 {
			r.Seeds = 1
		}
		if r.Bind && r.Seeds > 1 {
			return errors.New("bind and seeds are mutually exclusive")
		}
		if r.Bind && len(r.Apps) != 1 {
			return errors.New("bind sweeps exactly one app")
		}
		if r.Target != "" {
			return errors.New("target applies to advise only")
		}
	case "advise":
		if r.Bind || r.Seeds != 0 {
			return errors.New("bind/seeds apply to sweep only")
		}
		if err := r.resolveApps(true); err != nil {
			return err
		}
		switch r.Target {
		case "":
			r.Target = "xen"
		case "xen", "linux":
		default:
			return fmt.Errorf("unknown target %q (want xen or linux)", r.Target)
		}
	case "policies", "stats", "health":
		if r.App != "" || len(r.Apps) > 0 || r.Seeds != 0 || r.Bind || r.Markdown || r.Target != "" {
			return fmt.Errorf("%s takes no parameters", r.Op)
		}
	case "":
		return errors.New("missing op")
	default:
		return fmt.Errorf("unknown op %q (want sweep, advise, policies, stats or health)", r.Op)
	}
	return nil
}

// resolveApps folds App into Apps, expands a lone "all", applies the
// advise default set and rejects unknown names.
func (r *Request) resolveApps(defaultApps bool) error {
	switch {
	case r.App != "" && len(r.Apps) > 0:
		return errors.New("app and apps are mutually exclusive")
	case r.App != "":
		r.Apps = []string{r.App}
		r.App = ""
	case len(r.Apps) == 0:
		if !defaultApps {
			return errors.New("missing app")
		}
		r.Apps = append([]string(nil), advisor.DefaultApps...)
	}
	if len(r.Apps) == 1 && r.Apps[0] == "all" {
		r.Apps = exp.Apps()
		return nil
	}
	for _, app := range r.Apps {
		if err := xennuma.CheckApp(app); err != nil {
			return err
		}
	}
	return nil
}

// Tables computes a normalized sweep or advise request on s: the
// tables `xnuma sweep`/`advise` print and the service renders into its
// payload, in output order.
func (r *Request) Tables(s *exp.Suite) []*exp.Table {
	switch {
	case r.Op == "advise":
		target := advisor.TargetXen
		if r.Target == "linux" {
			target = advisor.TargetLinux
		}
		return []*exp.Table{advisor.Table(s, target, r.Apps)}
	case r.Bind:
		return []*exp.Table{exp.BindSweep(s, r.Apps[0])}
	case r.Seeds > 1:
		return exp.SeedSweepApps(s, r.Apps, r.Seeds)
	default:
		return exp.PolicySweepApps(s, r.Apps)
	}
}

// key is the coalescing identity of a normalized request: everything
// that shapes the result payload except the caller's id. Two requests
// with equal keys receive byte-identical Result payloads.
func (r *Request) key() string {
	return fmt.Sprintf("%s|md=%v|bind=%v|seeds=%d|target=%s|apps=%s",
		r.Op, r.Markdown, r.Bind, r.Seeds, r.Target, strings.Join(r.Apps, ","))
}

// cacheable reports whether the op's payload is deterministic for the
// server's lifetime (and so may be coalesced and replayed): sweeps and
// advice are pure functions of (seed, scale, request); stats changes
// between calls and policies is too cheap to bother.
func (r *Request) cacheable() bool { return r.Op == "sweep" || r.Op == "advise" }

// marshalResponse renders one response line (without the trailing
// newline). Marshaling a Response cannot fail — every field is a plain
// string/bool/RawMessage — but a defensive fallback keeps the protocol
// alive even if that invariant breaks.
func marshalResponse(id string, result json.RawMessage, errInfo *ErrorInfo) []byte {
	b, err := json.Marshal(Response{ID: id, OK: errInfo == nil, Error: errInfo, Result: result})
	if err != nil {
		b, _ = json.Marshal(Response{OK: false, Error: errorf("internal", "response marshal failed")})
	}
	return b
}
