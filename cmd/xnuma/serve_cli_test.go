package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// serveIO runs `xnuma [global] serve [serveArgs]` with stdin content and
// returns the raw response lines keyed by id plus the stderr text. Every
// response must be ok; protocol-level failures fail the test.
func serveIO(t *testing.T, stdin string, global, serveArgs []string) (map[string]json.RawMessage, string) {
	t.Helper()
	var out, errb strings.Builder
	argv := append(append([]string{}, global...), "serve")
	argv = append(argv, serveArgs...)
	code := runIO(argv, strings.NewReader(stdin), &out, &errb)
	if code != 0 {
		t.Fatalf("serve exit %d, stderr:\n%s", code, errb.String())
	}
	byID := map[string]json.RawMessage{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var envelope struct {
			ID     string          `json:"id"`
			OK     bool            `json:"ok"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &envelope); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		if !envelope.OK {
			t.Fatalf("request %q failed: %s", envelope.ID, line)
		}
		byID[envelope.ID] = envelope.Result
	}
	return byID, errb.String()
}

// TestServeSmoke: the serve subcommand answers requests over
// stdin/stdout and drains cleanly on EOF with a summary on stderr.
func TestServeSmoke(t *testing.T) {
	stdin := `{"id":"p","op":"policies"}` + "\n" + `{"id":"s","op":"stats"}` + "\n"
	byID, errb := serveIO(t, stdin, []string{"-scale", "256"}, nil)
	if _, ok := byID["p"]; !ok {
		t.Error("no policies response")
	}
	if _, ok := byID["s"]; !ok {
		t.Error("no stats response")
	}
	if !strings.Contains(errb, "requests") {
		t.Errorf("no summary on stderr: %q", errb)
	}
}

// TestServeUsageErrors: bad serve flags and stray arguments are usage
// errors, consistent with the other subcommands.
func TestServeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "extra"},
		{"serve", "-nope"},
	} {
		var out, errb strings.Builder
		if code := runIO(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestServedSweepMatchesCLI pins the service path to the batch path:
// for every sweep shape and for advise, the concatenated table texts of
// a served response must be byte-identical to what the one-shot CLI
// prints for the same question, seed, scale and worker count — the
// resident suite cannot drift from the throwaway one. The bind case
// names its one app with -apps on the CLI and with app on the wire.
func TestServedSweepMatchesCLI(t *testing.T) {
	global := []string{"-scale", "256", "-seed", "3", "-parallel", "2"}
	cases := []struct {
		id   string
		argv []string
		line string
	}{
		{"plain", []string{"sweep", "swaptions"},
			`{"id":"plain","op":"sweep","app":"swaptions"}`},
		{"bind", []string{"sweep", "-bind", "-apps", "swaptions"},
			`{"id":"bind","op":"sweep","app":"swaptions","bind":true}`},
		{"seeds", []string{"sweep", "-seeds", "2", "swaptions"},
			`{"id":"seeds","op":"sweep","app":"swaptions","seeds":2}`},
		{"multi-app", []string{"sweep", "-apps", "swaptions,ep.D"},
			`{"id":"multi-app","op":"sweep","apps":["swaptions","ep.D"]}`},
		{"advise", []string{"advise", "swaptions", "ep.D"},
			`{"id":"advise","op":"advise","apps":["swaptions","ep.D"]}`},
	}
	var stdin strings.Builder
	for _, c := range cases {
		stdin.WriteString(c.line + "\n")
	}
	byID, _ := serveIO(t, stdin.String(), global, nil)

	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			var cliOut, cliErr strings.Builder
			if code := run(append(append([]string{}, global...), c.argv...), &cliOut, &cliErr); code != 0 {
				t.Fatalf("xnuma %s: exit %d: %s", strings.Join(c.argv, " "), code, cliErr.String())
			}
			var result struct {
				Tables []struct {
					Text string `json:"text"`
				} `json:"tables"`
			}
			if err := json.Unmarshal(byID[c.id], &result); err != nil {
				t.Fatal(err)
			}
			var served strings.Builder
			for _, tb := range result.Tables {
				served.WriteString(tb.Text)
				served.WriteString("\n")
			}
			if served.String() != cliOut.String() {
				t.Fatalf("served %s drifted from the CLI:\n--- served ---\n%s\n--- cli ---\n%s",
					c.id, served.String(), cliOut.String())
			}
		})
	}
}

// TestServeCachePersistsAcrossRuns: with -cache-dir the first run saves
// its cells on exit and the second run starts warm from them; having
// computed nothing, it leaves the cache file unchanged.
func TestServeCachePersistsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	global := []string{"-scale", "256"}
	serveArgs := []string{"-cache-dir", dir}
	stdin := `{"id":"w","op":"sweep","app":"swaptions"}` + "\n"

	_, err1 := serveIO(t, stdin, global, serveArgs)
	if !strings.Contains(err1, "cache saved") {
		t.Fatalf("first run did not save cache: %q", err1)
	}
	_, err2 := serveIO(t, stdin, global, serveArgs)
	if !strings.Contains(err2, "warm start") || !strings.Contains(err2, "cache unchanged") {
		t.Fatalf("second run did not start warm and leave the cache unchanged: %q", err2)
	}
}
