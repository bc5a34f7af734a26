// Command xnuma runs the paper's experiments on the simulated stack and
// prints the regenerated tables and figures.
//
// Usage:
//
//	xnuma list                 # list experiment ids and applications
//	xnuma policies             # enumerate the NUMA policy registry
//	xnuma all                  # run every experiment (shares a result cache)
//	xnuma fig7 table4          # run specific experiments
//	xnuma run cg.C first-touch # one single-VM run with details
//	xnuma run cg.C bind:3      # any registered policy works
//	xnuma sweep facesim        # every registered policy × {plain, Carrefour}
//	xnuma sweep -bind facesim  # per-node bind:0..7 placement sensitivity
//	xnuma sweep -seeds 5 cg.C  # best-policy stability across 5 seeds
//	xnuma sweep -apps cg.C,sp.C        # several apps' sweeps in one batch
//	xnuma sweep -apps all -seeds 3     # every app × every seed on one pool
//	xnuma advise               # §3.5.2 advisor vs exhaustive sweep
//	xnuma advise all           # the advisor over all 29 applications
//	xnuma topo                 # dump the machine topology
//	xnuma serve                # resident sweep service on stdin/stdout
//	xnuma serve -listen :8080 -cache-dir ~/.cache/xnuma  # + HTTP, warm restarts
//
// Flags:
//
//	-scale N        machine/footprint scale divisor, a power of two in
//	                [1, 512] (default 64)
//	-seed N         simulation seed (default 1)
//	-parallel N     worker count for the experiment scheduler (default: all CPUs)
//	-progress       report per-experiment timing on stderr; sweeps also
//	                report live cells/sec while running
//	-md             render tables as Markdown
//	-cpuprofile f   write a CPU profile covering the whole invocation to f
//	-memprofile f   write an end-of-run heap profile to f
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	xennuma "repro"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point: it parses argv, executes one
// command and returns the process exit code (0 ok, 1 runtime error,
// 2 usage error). The serve subcommand reads requests from os.Stdin;
// tests inject their own reader through runIO.
func run(argv []string, stdout, stderr io.Writer) int {
	return runIO(argv, os.Stdin, stdout, stderr)
}

func runIO(argv []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("xnuma", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 64, "machine and footprint scale divisor (a power of two in [1, 512])")
	seed := fs.Uint64("seed", 1, "simulation seed")
	markdown := fs.Bool("md", false, "render tables as Markdown instead of ASCII")
	parallel := fs.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
	progress := fs.Bool("progress", false, "report per-experiment timing and run counts on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the whole invocation to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, `xnuma — regenerate the paper's evaluation on the simulated stack
usage:
  xnuma [flags] list | policies | all | topo | <experiment-id>... | run <app> <policy>
  xnuma [flags] sweep [-bind] [-seeds N] (<app>|all | -apps a,b,…|all) | advise [app...|all]
  xnuma [flags] serve [-listen addr] [-cache-dir dir] [-timeout d] [-max-flights n] [-max-pending n] [-faults plan]`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	if err := xennuma.CheckScale(*scale); err != nil {
		fmt.Fprintln(stderr, "xnuma:", err)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "xnuma: -parallel %d is negative (0 = one per CPU)\n", *parallel)
		return 2
	}

	// Profiles bracket everything after flag parsing, so the hot loop is
	// measurable on any command without editing code. Deferred: the CPU
	// profile stops (and the heap snapshot is taken) after the command —
	// including a recovered panic — has run.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "xnuma:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "xnuma:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintln(stderr, "xnuma:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	// A failing simulation cell surfaces as a panic from the suite;
	// report it as a clean error instead of a stack trace.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "xnuma: %v\n", p)
			code = 1
		}
	}()

	s := exp.NewSuiteParallel(*scale, *parallel)
	s.Opt.Seed = *seed
	render := func(t *exp.Table) string {
		if *markdown {
			return t.RenderMarkdown()
		}
		return t.Render()
	}
	report := func(id string, fn func(*exp.Suite) *exp.Table) {
		start := time.Now()
		before := s.CellsComputed()
		tbl := fn(s)
		if *progress {
			fmt.Fprintf(stderr, "xnuma: %s: %d new runs in %v (%d workers)\n",
				id, s.CellsComputed()-before, time.Since(start).Round(time.Millisecond), s.Workers())
		}
		fmt.Fprintln(stdout, render(tbl))
	}

	switch args[0] {
	case "list":
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range exp.IDs() {
			fmt.Fprintln(stdout, "  "+id)
		}
		fmt.Fprintln(stdout, "applications:")
		for _, a := range xennuma.Apps() {
			fmt.Fprintln(stdout, "  "+a)
		}
		fmt.Fprintln(stdout, "policies (xnuma policies for details):")
		for _, p := range exp.SweepPolicies() {
			fmt.Fprintln(stdout, "  "+p)
		}
	case "policies":
		printPolicies(stdout)
	case "all":
		for _, id := range exp.IDs() {
			report(id, exp.ByID(id))
		}
	case "topo":
		dumpTopology(stdout, *scale)
	case "run":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: xnuma run <app> <policy>")
			return 2
		}
		if err := runOne(s, stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "xnuma:", err)
			return 2
		}
	case "sweep", "advise":
		req, code := parseRequest(args[0], args[1:], stderr)
		if req == nil {
			return code
		}
		sweepProgress(s, stderr, *progress && req.Op == "sweep", func() {
			for _, t := range req.Tables(s) {
				fmt.Fprintln(stdout, render(t))
			}
		})
	case "serve":
		if c := runServe(s, stdin, stdout, stderr, args[1:]); c != 0 {
			return c
		}
	default:
		for _, id := range args {
			fn := exp.ByID(id)
			if fn == nil {
				fmt.Fprintf(stderr, "unknown experiment %q (try: xnuma list)\n", id)
				return 2
			}
			report(id, fn)
		}
	}
	return 0
}

// printPolicies renders the policy registry: one row per descriptor
// with its metadata, so users do not have to read ParsePolicy's source
// to learn what is runnable.
func printPolicies(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-16s %-6s %-22s %-9s %-6s %s\n",
		"NAME", "ALIASES", "ABBREV", "BOOT", "CARREFOUR", "NATIVE", "FAULT BEHAVIOR")
	for _, d := range policy.List() {
		name := d.Name
		if d.Parameterized {
			name += ":<arg>"
		}
		boot := "lazy (faults in)"
		switch {
		case d.RuntimeOnly:
			boot = "round-4K, then switch"
		case d.BootOnly:
			boot = "eager (boot-only)"
		case d.Boot != nil:
			boot = "eager"
		}
		yn := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		fmt.Fprintf(w, "%-14s %-16s %-6s %-22s %-9s %-6s %s\n",
			name, strings.Join(d.Aliases, ","), d.Abbrev, boot,
			yn(d.Carrefour), yn(!d.BootOnly), d.Fault)
	}
}

// writeHeapProfile records the end-of-run heap to path, after a GC so
// the profile reflects live memory rather than collectable garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// sweepUsage is the synopsis of the sweep subcommand.
const sweepUsage = "usage: xnuma sweep [-bind] [-seeds N] (<app>|all | -apps a,b,…|all)"

// parseRequest maps the argv after `xnuma sweep` or `xnuma advise` to
// the normalized serve.Request the service would decode from the same
// question: the sweep's -bind, -seeds and -apps flags or its positional
// app, or advise's app list. Request.Normalize does all the validation.
// On failure the request is nil and the exit code is 0 for -h and 2
// otherwise, with the reason already on stderr.
func parseRequest(cmd string, args []string, stderr io.Writer) (*serve.Request, int) {
	req := &serve.Request{Op: cmd, Apps: args}
	if cmd == "sweep" {
		fs := flag.NewFlagSet("xnuma sweep", flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.BoolVar(&req.Bind, "bind", false, "sweep bind:<node> over every node instead of the policy registry")
		fs.IntVar(&req.Seeds, "seeds", 1, "average the sweep over N consecutive seeds and report best-policy stability")
		apps := fs.String("apps", "", "comma-separated applications (or 'all') swept in one batch")
		fs.Usage = func() {
			fmt.Fprintln(stderr, sweepUsage)
			fs.PrintDefaults()
		}
		if err := fs.Parse(args); err != nil {
			if err == flag.ErrHelp {
				return nil, 0 // usage printed; asking for help is not a failure
			}
			return nil, 2 // the FlagSet already reported the error
		}
		if fs.NArg() > 1 {
			fmt.Fprintln(stderr, "xnuma:", sweepUsage)
			return nil, 2
		}
		req.App, req.Apps = fs.Arg(0), nil
		for _, app := range strings.Split(*apps, ",") {
			if app = strings.TrimSpace(app); app != "" {
				req.Apps = append(req.Apps, app)
			}
		}
	}
	if err := req.Normalize(); err != nil {
		fmt.Fprintf(stderr, "xnuma: %s: %v\n", cmd, err)
		return nil, 2
	}
	return req, 0
}

// sweepProgress runs a sweep under the live-throughput reporter: while
// fn computes (and renders) the sweep, a ticker samples the suite's
// CellsComputed counter every two seconds and writes running cells/sec
// to stderr, followed by one final summary line that also reports the
// warm-machine pool's hit/miss split. Without -progress it just runs
// fn.
func sweepProgress(s *exp.Suite, stderr io.Writer, progress bool, fn func()) {
	if !progress {
		fn()
		return
	}
	start := time.Now()
	base := s.CellsComputed()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cells := s.CellsComputed() - base
				if el := time.Since(start).Seconds(); el > 0 {
					fmt.Fprintf(stderr, "xnuma: sweep: %d cells, %.1f cells/sec\n",
						cells, float64(cells)/el)
				}
			}
		}
	}()
	fn()
	close(stop)
	<-done
	cells := s.CellsComputed() - base
	el := time.Since(start)
	rate := 0.0
	if sec := el.Seconds(); sec > 0 {
		rate = float64(cells) / sec
	}
	hits, misses := s.PoolStats()
	fmt.Fprintf(stderr, "xnuma: sweep: %d new runs in %v (%.1f cells/sec, %d workers, pool %d hits / %d misses)\n",
		cells, el.Round(time.Millisecond), rate, s.Workers(), hits, misses)
}

func runOne(s *exp.Suite, stdout io.Writer, app, pol string) error {
	cfg, err := xennuma.ParsePolicy(pol)
	if err != nil {
		return err
	}
	// Parsing checks syntax only; building the placer for the evaluation
	// machine's nodes also rejects an out-of-range bind:<node>.
	if _, err := policy.New(cfg.Static, numa.AMD48Nodes); err != nil {
		return err
	}
	if err := xennuma.CheckApp(app); err != nil {
		return err
	}
	// Name the cell by the canonical spelling every driver uses: the key
	// names the cell, and seeds its random stream when the run reads
	// one, so "r4k/carrefour" must name the same cell as
	// "round-4k/carrefour".
	r := s.Xen(app, strings.ToLower(cfg.String()), true).Result()
	fmt.Fprintf(stdout, "app:          %s\n", r.App)
	fmt.Fprintf(stdout, "backend:      %s\n", r.Backend)
	fmt.Fprintf(stdout, "completion:   %v\n", r.Completion)
	fmt.Fprintf(stdout, "init phase:   %v\n", r.InitTime)
	fmt.Fprintf(stdout, "imbalance:    %.0f%%\n", r.Imbalance)
	fmt.Fprintf(stdout, "interconnect: %.0f%%\n", r.InterconnectLoad)
	fmt.Fprintf(stdout, "locality:     %.2f\n", r.Locality)
	fmt.Fprintf(stdout, "migrated:     %d pages\n", r.Migrated)
	return nil
}

// runServe starts the resident sweep service on the suite: JSON-lines
// requests on stdin answered on stdout and, with -listen, the same
// protocol over HTTP (POST /rpc). The service drains gracefully on
// stdin EOF, SIGTERM or SIGINT — in-flight requests finish, the HTTP
// listener shuts down, and with -cache-dir the cell cache is persisted
// for the next start. Diagnostics (warm-start counts, listener address,
// the final summary) go to stderr; stdout carries only protocol lines.
// It reports its errors itself and returns the exit code.
func runServe(s *exp.Suite, stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("xnuma serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "also serve the protocol over HTTP on this address (POST /rpc)")
	cacheDir := fs.String("cache-dir", "", "persist the cell cache in this directory across restarts")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0 = none); timed-out work keeps computing")
	maxFlights := fs.Int("max-flights", 0, "retained completed-response cache bound (0 = default)")
	maxPending := fs.Int("max-pending", 0, "shed new work past this many concurrent computations (0 = no shedding)")
	faults := fs.String("faults", "", "inject faults per plan, e.g. pool.reset:hit=1:action=error (testing)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: xnuma serve [-listen addr] [-cache-dir dir] [-timeout d] [-max-flights n] [-max-pending n] [-faults plan]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "xnuma: serve takes no positional arguments")
		return 2
	}
	if *faults != "" {
		plan, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintln(stderr, "xnuma: -faults:", err)
			return 2
		}
		faultinject.Install(plan)
		defer faultinject.Install(nil)
		fmt.Fprintf(stderr, "xnuma: serve: fault plan armed: %s\n", plan.Spec())
	}

	srv := serve.New(s, serve.Config{
		ModelVersion: xennuma.ModelVersion(),
		CacheDir:     *cacheDir,
		Timeout:      *timeout,
		MaxFlights:   *maxFlights,
		MaxPending:   *maxPending,
	})
	if *cacheDir != "" {
		switch n, err := srv.LoadCache(); {
		case err != nil:
			fmt.Fprintf(stderr, "xnuma: serve: cache: %v\n", err)
		case n > 0:
			fmt.Fprintf(stderr, "xnuma: serve: warm start: %d cells restored\n", n)
		}
	}

	var httpSrv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, "xnuma:", err)
			return 1
		}
		fmt.Fprintf(stderr, "xnuma: serve: listening on http://%s/rpc\n", ln.Addr())
		httpSrv = &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := srv.Serve(ctx, stdin, stdout)
	if httpSrv != nil {
		httpSrv.Shutdown(context.Background())
	}
	srv.Drain()
	code := 0
	if err != nil {
		fmt.Fprintln(stderr, "xnuma:", err)
		code = 1
	}
	if *cacheDir != "" {
		switch n, wrote, serr := srv.SaveCache(); {
		case serr != nil:
			fmt.Fprintf(stderr, "xnuma: serve: cache: %v\n", serr)
			code = 1
		case wrote:
			fmt.Fprintf(stderr, "xnuma: serve: cache saved: %d cells\n", n)
		default:
			fmt.Fprintf(stderr, "xnuma: serve: cache unchanged: %d cells, none computed\n", n)
		}
	}
	fmt.Fprintf(stderr, "xnuma: serve: %s\n", srv.Stats())
	return code
}

func dumpTopology(stdout io.Writer, scale int) {
	t := numa.AMD48Scaled(scale)
	fmt.Fprintf(stdout, "AMD48 (scale 1/%d): %d nodes, %d CPUs, %d MiB total\n",
		scale, t.NumNodes(), t.NumCPUs(), t.TotalMemory()>>20)
	for _, n := range t.Nodes {
		fmt.Fprintf(stdout, "  node %d: cpus %v, %d MiB, pci=%v\n", n.ID, n.CPUs, n.MemBytes>>20, n.PCIBus)
	}
	fmt.Fprintln(stdout, "  hop distance matrix:")
	for i := 0; i < t.NumNodes(); i++ {
		fmt.Fprint(stdout, "   ")
		for j := 0; j < t.NumNodes(); j++ {
			fmt.Fprintf(stdout, " %d", t.Distance(numa.NodeID(i), numa.NodeID(j)))
		}
		fmt.Fprintln(stdout)
	}
	lm := t.Latency
	fmt.Fprintf(stdout, "  latency (cycles): local %d, 1-hop %d, 2-hop %d\n",
		lm.BaseCycles(0), lm.BaseCycles(1), lm.BaseCycles(2))
}
