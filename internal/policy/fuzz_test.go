package policy

import (
	"strings"
	"testing"
)

// FuzzParse hammers the policy-string parser, which reads text from
// outside the program (`xnuma run <app> <policy>`, sweep and serve
// requests): every input must yield either an error or a configuration
// that passes CheckConfig and whose String() parses back to the same
// configuration. CI runs a short -fuzztime smoke of this target on
// every push.
func FuzzParse(f *testing.F) {
	for _, d := range List() {
		spellings := append([]string{d.Name, strings.ToLower(d.Name)}, d.Aliases...)
		for _, sp := range spellings {
			if d.Parameterized {
				sp += ":" + d.DefaultArg
			}
			for _, suffix := range []string{"", "/carrefour", "/carrefour:mig", "/carrefour:repl"} {
				f.Add(sp + suffix)
			}
		}
	}
	for _, s := range []string{
		// Bind arguments: missing, negative, overflowing, zero-padded.
		"bind:", "bind:-1", "bind:99999999999999999999", "bind:07",
		// Case and whitespace.
		"RoUnD-4k/CarreFour:MIGRATION", "FT/CARREFOUR:Repl",
		"  first-touch  ", "\tround-4k/carrefour\n",
		// Unknown suffixes and variants.
		"round-4k/", "round-4k/foo", "round-4k/carrefour:", "round-4k/carrefour:bogus",
		"round-4k/carrefour/carrefour", "round-1g/carrefour", "round-4k:3",
		"", "/", ":",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := Parse(s)
		if err != nil {
			return
		}
		if err := CheckConfig(cfg); err != nil {
			t.Fatalf("Parse(%q) = %+v, which CheckConfig rejects: %v", s, cfg, err)
		}
		again, err := Parse(cfg.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, whose String %q does not parse: %v", s, cfg, cfg.String(), err)
		}
		if again != cfg {
			t.Fatalf("Parse(%q) = %+v, but Parse(%q) = %+v", s, cfg, cfg.String(), again)
		}
	})
}
