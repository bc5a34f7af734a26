package policy

import (
	"fmt"
	"strings"
)

// Descriptor describes one registered policy: its names, its behaviour
// metadata, and its two faces — the Placer both platforms ask at fault
// time, and optional eager boot placement. Registering a Descriptor is
// all it takes to make a policy runnable end-to-end: the hypervisor,
// guest, native backend, facade, CLI and experiment layers all consult
// the registry instead of switching on kinds. Every kind runs natively
// too, except boot-only layouts.
type Descriptor struct {
	// Name is the canonical kind ("round-4K"). Lookups are
	// case-insensitive; Name must not contain ":" or "/".
	Name string
	// Aliases are additional accepted spellings ("r4k"). The canonical
	// lowercase name is implicit and must not be repeated here.
	Aliases []string
	// Abbrev is the paper's Table-4 shorthand ("R4K"); parameterized
	// kinds get the argument appended ("bind:3" → "B3").
	Abbrev string
	// Fault is a one-line description of the fault-time behaviour, for
	// `xnuma policies`.
	Fault string
	// Parameterized kinds are written name:<arg> ("bind:3"); DefaultArg
	// instantiates them in sweeps.
	Parameterized bool
	DefaultArg    string
	// Carrefour reports whether the dynamic Carrefour policy may stack
	// on top ("<name>/carrefour" parses only when true).
	Carrefour bool
	// BootOnly kinds are boot layouts that cannot be selected at run
	// time (round-1G, §4.2.1); they have no native form either.
	BootOnly bool
	// RuntimeOnly kinds cannot be booted; domains running them boot
	// round-4K and switch through the hypercall (first-touch, §4.2.1).
	RuntimeOnly bool
	// UsesPageQueue activates the guest's page-queue driver (§4.2.3).
	// Such policies invalidate hypervisor entries at run time, which the
	// IOMMU cannot resolve, so selecting one disables PCI passthrough
	// (§4.4.1).
	UsesPageQueue bool
	// Contiguous reports that boot placement uses physically contiguous
	// huge regions, keeping guest-contiguous DMA buffers on one node.
	Contiguous bool

	// New builds the placer: a fresh one each time a domain installs
	// the policy, and one per native backend. arg is the text after ":"
	// for parameterized kinds ("" otherwise); nodes is the machine's
	// node count.
	New func(arg string, nodes int) (Placer, error)
	// NormalizeArg canonicalizes and syntax-checks arg for
	// parameterized kinds (nil for plain kinds).
	NormalizeArg func(arg string) (string, error)
	// Boot eagerly populates a domain's physical space at build time;
	// nil boots lazily (see BootPlacer).
	Boot BootPlacer
}

// DefaultSpelling returns the descriptor's suite-ready lowercase
// spelling, parameterized kinds instantiated with their default
// argument ("round-4k", "bind:0"). Sweeps, candidate sets and policy
// listings all derive their cache-key spellings from it, so they agree
// on what "one cell per registered policy" means.
func (d Descriptor) DefaultSpelling() string {
	name := strings.ToLower(d.Name)
	if d.Parameterized {
		name += ":" + d.DefaultArg
	}
	return name
}

// Registry maps stable string names to policy Descriptors. The zero
// value is not usable; call NewRegistry. Registration is expected at
// init time; lookups afterwards are read-only and safe for concurrent
// use.
type Registry struct {
	byName map[string]*Descriptor
	order  []*Descriptor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Descriptor)}
}

// Register adds d to the registry. It panics on an empty or malformed
// name, a duplicate name or alias, or a missing New factory — a broken
// registration is a programming error that must not surface later as an
// unknown-policy lookup.
func (r *Registry) Register(d Descriptor) {
	if d.Name == "" {
		panic("policy: registering a descriptor with an empty name")
	}
	if strings.ContainsAny(d.Name, ":/") {
		panic(fmt.Sprintf("policy: name %q must not contain ':' or '/'", d.Name))
	}
	if d.New == nil {
		panic(fmt.Sprintf("policy: descriptor %q has no New factory", d.Name))
	}
	if d.Parameterized && d.DefaultArg == "" {
		panic(fmt.Sprintf("policy: parameterized descriptor %q needs a DefaultArg", d.Name))
	}
	if d.Parameterized && d.NormalizeArg == nil {
		panic(fmt.Sprintf("policy: parameterized descriptor %q needs a NormalizeArg", d.Name))
	}
	keys := append([]string{strings.ToLower(d.Name)}, d.Aliases...)
	for _, k := range keys {
		key := strings.ToLower(k)
		if key == "" || strings.ContainsAny(key, ":/") {
			panic(fmt.Sprintf("policy: descriptor %q has malformed alias %q", d.Name, k))
		}
		if prev, dup := r.byName[key]; dup {
			panic(fmt.Sprintf("policy: name %q already registered by %q", k, prev.Name))
		}
		r.byName[key] = &d
	}
	r.order = append(r.order, &d)
}

// Lookup resolves kind ("first-touch", "BIND:3") to its descriptor and
// parameter. The parameter is returned in canonical form. The
// descriptor is returned by value so callers cannot mutate the shared
// registry state behind the concurrent lookups' back.
func (r *Registry) Lookup(kind Kind) (Descriptor, string, error) {
	name := strings.ToLower(strings.TrimSpace(string(kind)))
	if name == "" {
		return Descriptor{}, "", fmt.Errorf("policy: empty policy name")
	}
	base, arg, hasArg := strings.Cut(name, ":")
	d, ok := r.byName[base]
	if !ok {
		return Descriptor{}, "", fmt.Errorf("policy: unknown policy %q", kind)
	}
	if !d.Parameterized {
		if hasArg {
			return Descriptor{}, "", fmt.Errorf("policy: %s takes no argument (got %q)", d.Name, kind)
		}
		return *d, "", nil
	}
	if !hasArg || arg == "" {
		return Descriptor{}, "", fmt.Errorf("policy: %s requires an argument (%s:<arg>)", d.Name, d.Name)
	}
	norm, err := d.NormalizeArg(arg)
	if err != nil {
		return Descriptor{}, "", fmt.Errorf("policy: %s: %w", d.Name, err)
	}
	return *d, norm, nil
}

// Resolve is Lookup plus the canonical spelling of kind ("R4K" →
// "round-4K", "bind:03" → "bind:3"). Callers that store or compare
// kinds must keep the canonical form, so equality checks are not fooled
// by aliases or case.
func (r *Registry) Resolve(kind Kind) (Descriptor, string, Kind, error) {
	d, arg, err := r.Lookup(kind)
	if err != nil {
		return Descriptor{}, "", "", err
	}
	canon := Kind(d.Name)
	if d.Parameterized {
		canon = Kind(d.Name + ":" + arg)
	}
	return d, arg, canon, nil
}

// List returns the registered descriptors in registration order.
func (r *Registry) List() []Descriptor {
	out := make([]Descriptor, len(r.order))
	for i, d := range r.order {
		out[i] = *d
	}
	return out
}

// Default is the process-wide registry holding the built-in policies.
var Default = NewRegistry()

// Register adds a descriptor to the default registry (see
// Registry.Register).
func Register(d Descriptor) { Default.Register(d) }

// Describe resolves kind in the default registry.
func Describe(kind Kind) (Descriptor, string, error) { return Default.Lookup(kind) }

// Resolve resolves kind in the default registry, also returning its
// canonical spelling.
func Resolve(kind Kind) (Descriptor, string, Kind, error) { return Default.Resolve(kind) }

// CheckConfig validates a full configuration against the registry: the
// kind must be registered and Carrefour may only stack where the
// descriptor allows it. Parse applies the same rules; CheckConfig is
// for configurations built programmatically.
func CheckConfig(cfg Config) error {
	d, _, err := Describe(cfg.Static)
	if err != nil {
		return err
	}
	if cfg.Carrefour && !d.Carrefour {
		return fmt.Errorf("policy: carrefour cannot stack on %s", d.Name)
	}
	if !ValidCarrefourVariant(cfg.CarrefourVariant) {
		return fmt.Errorf("policy: unknown carrefour variant %q", cfg.CarrefourVariant)
	}
	if cfg.CarrefourVariant != "" && !cfg.Carrefour {
		return fmt.Errorf("policy: carrefour variant %q without carrefour", cfg.CarrefourVariant)
	}
	return nil
}

// List returns the default registry's descriptors in registration
// order.
func List() []Descriptor { return Default.List() }

// Parse parses a policy configuration string: a registered kind in any
// case or alias spelling, optionally suffixed "/carrefour" (e.g.
// "round-4k/carrefour", "ft", "bind:3"), itself optionally carrying a
// heuristic variant ("/carrefour:migration", "/carrefour:replication",
// with "mig"/"repl" accepted as shorthands). The returned Config
// carries the canonical kind and variant, so Parse(cfg.String())
// round-trips.
func Parse(s string) (Config, error) {
	var cfg Config
	name := strings.ToLower(strings.TrimSpace(s))
	if base, suffix, ok := strings.Cut(name, "/"); ok {
		variant, err := parseCarrefourSuffix(suffix)
		if err != nil {
			return Config{}, err
		}
		cfg.Carrefour = true
		cfg.CarrefourVariant = variant
		name = base
	}
	d, _, canon, err := Resolve(Kind(name))
	if err != nil {
		return Config{}, err
	}
	if cfg.Carrefour && !d.Carrefour {
		return Config{}, fmt.Errorf("policy: carrefour cannot stack on %s", d.Name)
	}
	cfg.Static = canon
	return cfg, nil
}

// parseCarrefourSuffix canonicalizes the text after the "/" of a policy
// string: "carrefour" or "carrefour:<variant>".
func parseCarrefourSuffix(suffix string) (string, error) {
	rest, ok := strings.CutPrefix(suffix, "carrefour")
	if !ok {
		return "", fmt.Errorf("policy: unknown suffix %q (want /carrefour[:variant])", suffix)
	}
	if rest == "" {
		return CarrefourFull, nil
	}
	variant, ok := strings.CutPrefix(rest, ":")
	if !ok {
		return "", fmt.Errorf("policy: unknown suffix %q (want /carrefour[:variant])", suffix)
	}
	switch variant {
	case "migration", "mig":
		return CarrefourMigrationOnly, nil
	case "replication", "repl":
		return CarrefourReplicationOnly, nil
	default:
		return "", fmt.Errorf("policy: unknown carrefour variant %q (want migration or replication)", variant)
	}
}
