package main

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

// canonicalSweepArgv states a normalized sweep request as sweep argv:
// every parameter as a flag and the apps as one -apps list.
func canonicalSweepArgv(r *serve.Request) []string {
	argv := []string{"-seeds", strconv.Itoa(r.Seeds)}
	if r.Bind {
		argv = append(argv, "-bind")
	}
	return append(argv, "-apps", strings.Join(r.Apps, ","))
}

// TestRequestRules pins the one rule set on both faces. Each case
// lists spellings of one question, as CLI argv and as protocol lines:
// all of them must be rejected, or all must normalize to one request
// naming the given number of apps. The cases cover the three rules:
// bind takes exactly one app however it is given, a lone "all" expands
// to every app for sweep and advise, and seeds is capped at 64.
func TestRequestRules(t *testing.T) {
	for _, tc := range []struct {
		argvs [][]string
		lines []string
		apps  int // 0: every spelling is rejected
	}{
		{[][]string{{"sweep", "all"}, {"sweep", "-apps", "all"}},
			[]string{`{"op":"sweep","app":"all"}`, `{"op":"sweep","apps":["all"]}`}, 29},
		{[][]string{{"advise", "all"}},
			[]string{`{"op":"advise","app":"all"}`, `{"op":"advise","apps":["all"]}`}, 29},
		{[][]string{{"advise"}}, []string{`{"op":"advise"}`}, 5},
		{[][]string{{"sweep", "-bind", "-apps", "facesim"}, {"sweep", "-bind", "facesim"}},
			[]string{`{"op":"sweep","apps":["facesim"],"bind":true}`, `{"op":"sweep","app":"facesim","bind":true}`}, 1},
		{[][]string{{"sweep", "-bind", "-apps", "facesim,cg.C"}},
			[]string{`{"op":"sweep","apps":["facesim","cg.C"],"bind":true}`}, 0},
		{[][]string{{"sweep", "-seeds", "64", "cg.C"}}, []string{`{"op":"sweep","app":"cg.C","seeds":64}`}, 1},
		{[][]string{{"sweep", "-seeds", "65", "cg.C"}}, []string{`{"op":"sweep","app":"cg.C","seeds":65}`}, 0},
		{[][]string{{"sweep", "-seeds", "-1", "cg.C"}}, []string{`{"op":"sweep","app":"cg.C","seeds":-1}`}, 0},
	} {
		var names []string
		var reqs []*serve.Request // nil where the spelling is rejected
		for _, argv := range tc.argvs {
			var errb strings.Builder
			req, _ := parseRequest(argv[0], argv[1:], &errb)
			names = append(names, "xnuma "+strings.Join(argv, " "))
			reqs = append(reqs, req)
		}
		for _, line := range tc.lines {
			req := new(serve.Request)
			if err := json.Unmarshal([]byte(line), req); err != nil {
				t.Fatal(err)
			}
			if req.Normalize() != nil {
				req = nil
			}
			names = append(names, line)
			reqs = append(reqs, req)
		}
		for i, req := range reqs {
			switch {
			case req == nil && tc.apps > 0:
				t.Errorf("%s rejected, want a request naming %d apps", names[i], tc.apps)
			case req != nil && tc.apps == 0:
				t.Errorf("%s accepted as %+v, want it rejected", names[i], *req)
			case req != nil && len(req.Apps) != tc.apps:
				t.Errorf("%s names %d apps, want %d", names[i], len(req.Apps), tc.apps)
			case req != nil && reqs[0] != nil && !reflect.DeepEqual(req, reqs[0]):
				t.Errorf("%s = %+v, %s = %+v; want one request", names[i], *req, names[0], *reqs[0])
			}
		}
	}
}

// FuzzCLIArgs maps fuzzed sweep argv (newline-separated) to requests
// without computing a cell. Every input is either rejected — no
// request, exit 2 (0 when it asks for -h), a message on stderr — or
// yields a normalized request whose canonical argv parses back to an
// equal request. CI runs a short -fuzztime smoke of this target on
// every push.
func FuzzCLIArgs(f *testing.F) {
	for _, argv := range [][]string{
		// TestSweepUsage's cases.
		{},
		{"nosuch-app"},
		{"-bind", "-seeds", "3", "swaptions"},
		{"-apps", "swaptions", "ep.D"},
		{"-bind", "-apps", "swaptions,ep.D"},
		{"-apps", "swaptions,nosuch-app"},
		{"-apps", ","},
		{"-seeds", "-2", "swaptions"},
		{"-seeds", "65", "swaptions"},
		// Accepted shapes, and a request for help.
		{"swaptions"},
		{"all"},
		{"-bind", "-apps", "facesim"},
		{"-seeds=3", "-apps", " cg.C , sp.C ,"},
		{"-h"},
	} {
		f.Add(strings.Join(argv, "\n"))
	}
	f.Fuzz(func(t *testing.T, joined string) {
		var argv []string
		if joined != "" {
			argv = strings.Split(joined, "\n")
		}
		var errb strings.Builder
		req, code := parseRequest("sweep", argv, &errb)
		if req == nil {
			help := false
			for _, a := range argv {
				switch a {
				case "-h", "-help", "--h", "--help":
					help = true
				}
			}
			if code != 2 && !(code == 0 && help) {
				t.Fatalf("sweep %q: rejected with exit %d", argv, code)
			}
			if errb.Len() == 0 {
				t.Fatalf("sweep %q: rejected with no message", argv)
			}
			return
		}
		if code != 0 || errb.Len() != 0 {
			t.Fatalf("sweep %q: accepted with exit %d, stderr %q", argv, code, errb.String())
		}
		canon := canonicalSweepArgv(req)
		back, _ := parseRequest("sweep", canon, &errb)
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("sweep %q = %+v, but its canonical argv %q parses to %+v (%s)",
				argv, req, canon, back, errb.String())
		}
	})
}
