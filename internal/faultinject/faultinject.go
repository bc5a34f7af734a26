// Package faultinject is the deterministic fault-injection framework
// behind the reproduction's failure model. The paper's pitch is a
// hypervisor interface that keeps virtual machines serving well under
// adverse placement; the serving layer built on top of the simulation
// (the warm machine pool, the resident sweep service of `xnuma serve`)
// must likewise degrade instead of dying when its own hazards fire —
// a diverged pool reset, a damaged cache file, a panicking simulation
// cell. This package makes those hazards reproducible: packages
// register named fault sites at their hazard points, a parseable plan
// ("site:hit=N:action=error|panic|delay") arms them, and every armed
// fault fires at an exact per-site hit count — so a chaos schedule is
// replayable from its seed, the same way a simulation run is
// replayable from Options.Seed.
//
// With no plan installed a site is a single atomic pointer load; the
// fast path carries //xnuma:noalloc and stays legal on any hot path.
// Faults never use ambient randomness or wall-clock time (detrand
// polices this package like every other simulation package): hit
// counts are the only trigger, and delays are fixed durations from
// the plan.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Actions a rule can take when it fires.
const (
	// ActionError makes the site return a *Fault error.
	ActionError = "error"
	// ActionPanic makes the site panic with a *Fault. Hardened callers
	// must recover it into a structured error.
	ActionPanic = "panic"
	// ActionDelay stalls the site for the rule's fixed duration and
	// then succeeds — a latency fault for widening race windows.
	ActionDelay = "delay"
)

// defaultDelay is the stall of a delay rule that names no duration.
const defaultDelay = time.Millisecond

// Site is one registered fault point. Packages declare their sites as
// package-level variables via Register and call Fire at the hazard.
type Site struct {
	name string
}

// registry holds every registered site; written only during package
// init (Register), read-only afterwards.
var (
	registryMu sync.Mutex
	registry   = map[string]*Site{}
)

// Register declares a fault site. It is meant to be called from
// package-level variable initializers; duplicate or empty names are
// programming errors and panic.
func Register(name string) *Site {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" {
		panic("faultinject: empty site name")
	}
	if _, dup := registry[name]; dup {
		panic("faultinject: duplicate site " + name)
	}
	s := &Site{name: name}
	registry[name] = s
	return s
}

// Sites returns the sorted names of every registered site (the sites
// of all packages linked into the binary).
func Sites() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Fault is the error (or panic value) an armed site produces. The
// same value is returned on every trigger of its rule, so comparisons
// and wrapping are cheap and allocation-free at fire time.
type Fault struct {
	Site   string
	Hit    uint64
	Action string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s: injected %s at hit %d", f.Site, f.Action, f.Hit)
}

// rule is one armed trigger: at exactly the Hit-th Fire of the site,
// take Action.
type rule struct {
	hit    uint64
	action string
	delay  time.Duration
	fault  *Fault // preallocated at parse time
}

// siteState is the per-site slice of a plan: its rules plus the hit
// and fired counters.
type siteState struct {
	rules []rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

// Plan is a parsed fault schedule. Installing a plan arms its sites;
// the plan's counters then record every hit and every triggered rule,
// so tests can assert degradation counters against TotalFired. A Plan
// must not be installed twice without re-Parsing: its counters carry
// state.
type Plan struct {
	sites map[string]*siteState
	spec  string
}

// active is the installed plan; nil disables every site.
var active atomic.Pointer[Plan]

// Install arms p at every site it names (nil disarms all sites). The
// swap is atomic: in-flight Fire calls complete against whichever
// plan they loaded.
func Install(p *Plan) { active.Store(p) }

// ActiveSpec returns the installed plan's canonical spec, or "".
func ActiveSpec() string {
	if p := active.Load(); p != nil {
		return p.spec
	}
	return ""
}

// Fire reports the injected fault for this hit of the site: nil when
// no plan is installed, the site is not named, or no rule matches the
// hit count. ActionError returns the rule's Fault, ActionPanic panics
// with it, ActionDelay sleeps the rule's duration and returns nil.
//
//xnuma:noalloc
func (s *Site) Fire() error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(s)
}

// fire is the armed slow path: count the hit and trigger any matching
// rule.
func (p *Plan) fire(s *Site) error {
	st := p.sites[s.name]
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	for i := range st.rules {
		r := &st.rules[i]
		if r.hit != n {
			continue
		}
		st.fired.Add(1)
		switch r.action {
		case ActionPanic:
			panic(r.fault)
		case ActionDelay:
			time.Sleep(r.delay)
			return nil
		default: // ActionError
			return r.fault
		}
	}
	return nil
}

// Fired returns how many rules have triggered at the named site.
func (p *Plan) Fired(site string) uint64 {
	if st := p.sites[site]; st != nil {
		return st.fired.Load()
	}
	return 0
}

// Hits returns how many times the named site has fired while armed.
func (p *Plan) Hits(site string) uint64 {
	if st := p.sites[site]; st != nil {
		return st.hits.Load()
	}
	return 0
}

// TotalFired returns the number of triggered rules across all sites.
func (p *Plan) TotalFired() uint64 {
	var n uint64
	for _, name := range p.SiteNames() {
		n += p.sites[name].fired.Load()
	}
	return n
}

// SiteNames returns the sorted site names the plan arms.
func (p *Plan) SiteNames() []string {
	out := make([]string, 0, len(p.sites))
	for n := range p.sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Spec returns the canonical spec string the plan was parsed from
// (rules sorted by site, then hit).
func (p *Plan) Spec() string { return p.spec }

// Parse builds a plan from a comma-separated rule list. Each rule is
//
//	site:hit=N:action=error|panic|delay[:delay=DURATION]
//
// where site must be registered (see Sites), N is the 1-based count
// of Fire calls at that site that triggers the rule, and DURATION
// (only legal with action=delay, default 1ms) is a Go duration. Each
// key appears at most once in a rule, and rules at the same site must
// name distinct hits.
func Parse(spec string) (*Plan, error) {
	p := &Plan{sites: map[string]*siteState{}}
	var canon []string
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, site, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		st := p.sites[site]
		if st == nil {
			st = &siteState{}
			p.sites[site] = st
		}
		for _, prev := range st.rules {
			if prev.hit == r.hit {
				return nil, fmt.Errorf("faultinject: duplicate rule for %s at hit %d", site, r.hit)
			}
		}
		st.rules = append(st.rules, r)
	}
	if len(p.sites) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault plan")
	}
	for _, site := range p.SiteNames() {
		st := p.sites[site]
		sort.Slice(st.rules, func(i, j int) bool { return st.rules[i].hit < st.rules[j].hit })
		for _, r := range st.rules {
			c := fmt.Sprintf("%s:hit=%d:action=%s", site, r.hit, r.action)
			if r.action == ActionDelay {
				c += ":delay=" + r.delay.String()
			}
			canon = append(canon, c)
		}
	}
	p.spec = strings.Join(canon, ",")
	return p, nil
}

// parseRule parses one site:hit=N:action=A[:delay=D] clause.
func parseRule(raw string) (rule, string, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 3 {
		return rule{}, "", fmt.Errorf("faultinject: rule %q: want site:hit=N:action=error|panic|delay", raw)
	}
	site := parts[0]
	registryMu.Lock()
	_, known := registry[site]
	registryMu.Unlock()
	if !known {
		return rule{}, "", fmt.Errorf("faultinject: unknown site %q (registered: %s)", site, strings.Join(Sites(), ", "))
	}
	r := rule{delay: defaultDelay}
	seen := map[string]bool{}
	repeated := ""
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return rule{}, "", fmt.Errorf("faultinject: rule %q: malformed clause %q", raw, kv)
		}
		switch k {
		case "hit":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return rule{}, "", fmt.Errorf("faultinject: rule %q: hit must be a positive integer", raw)
			}
			r.hit = n
		case "action":
			switch v {
			case ActionError, ActionPanic, ActionDelay:
				r.action = v
			default:
				return rule{}, "", fmt.Errorf("faultinject: rule %q: unknown action %q (want error, panic or delay)", raw, v)
			}
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return rule{}, "", fmt.Errorf("faultinject: rule %q: bad delay %q", raw, v)
			}
			r.delay = d
		default:
			return rule{}, "", fmt.Errorf("faultinject: rule %q: unknown key %q", raw, k)
		}
		if seen[k] && repeated == "" {
			repeated = k
		}
		seen[k] = true
	}
	if !seen["hit"] || !seen["action"] {
		return rule{}, "", fmt.Errorf("faultinject: rule %q: hit and action are required", raw)
	}
	if repeated != "" {
		return rule{}, "", fmt.Errorf("faultinject: rule %q: %s= given twice", raw, repeated)
	}
	if seen["delay"] && r.action != ActionDelay {
		return rule{}, "", fmt.Errorf("faultinject: rule %q: delay= applies to action=delay only", raw)
	}
	r.fault = &Fault{Site: site, Hit: r.hit, Action: r.action}
	return r, site, nil
}
