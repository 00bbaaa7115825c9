// Command altsim regenerates the tables and figures of Sibal & DeSimone,
// "Controlling Alternate Routing in General-Mesh Packet Flow Networks"
// (SIGCOMM 1994), plus the extension studies of this reproduction.
//
// Usage:
//
//	altsim <experiment> [flags]
//
// Experiments:
//
//	fig2          Figure 2: protection level r vs primary load Λ
//	quad          Figures 3/4: quadrangle blocking vs offered load
//	table1        Table 1: NSFNet loads and protection levels
//	nsfnet        Figures 6/7: NSFNet blocking vs load (H=11)
//	h6            §4.2.2: H=6 sweep and alternate-path census
//	failures      §4: link-failure scenarios (2↔3, 7↔9)
//	skew          §4: per-O-D-pair blocking fairness (H=6)
//	minloss       §4: min-loss vs min-hop primary selection
//	ottkrishnan   §4.2.2: NSFNet sweep including the Ott–Krishnan comparator
//	mitragibbens  §3.2: Equation-15 r vs simulated-optimal r (C=120, H=2)
//	cellular      §3.2: channel borrowing with state protection
//	robust        extension: online Λ estimation vs a-priori Λ
//	signaling     extension: two-phase call set-up latency study
//	multirate     extension: voice+video classes (Kaufman–Roberts protection)
//	fixedpoint    extension: Erlang fixed-point vs simulated single-path
//	overflow      ablation: shortest-first vs least-busy alternate selection
//	ramp          extension: nonstationary (ramp/diurnal) robustness
//	dalfar        extension: distributed route computation (ref. [14])
//	hvariants     extension: global-H vs per-link H^k vs tiered protection
//	focused       extension: focused overload on one O-D pair
//	peakedness    extension: assumption-A1 study (overflow arrival dispersion)
//	generalize    extension: guarantee check across random meshes
//	retrials      extension: customer retrials (assumption-A2 stress)
//	insensitivity extension: holding-time distribution sensitivity
//	capacity      extension: headroom search at a 1% grade of service
//	availability  extension: blocking and lost-to-failure vs random outage rate
//	custom        run the three-policy comparison on a -scenario JSON file
//	metro         three-policy comparison on the synthetic metro topology
//	              (-pops, -popsize; -loads intra[,inter] Erlangs)
//	export-scenario  dump the NSFNet scenario as JSON (template for custom)
//	dot           Graphviz DOT of the NSFNet model (or a -scenario file)
//	verify        fast self-check of the headline reproduction claims
//	report        markdown reproduction report to stdout
//	bound         Erlang bound values for both paper networks
//	all           the reproduction run behind experiments_full_output.txt
//
// Common flags: -seeds, -warmup, -horizon, -loads, -H, -parallel.
// The -parallel flag caps the worker goroutines of every parallel stage
// (seed runs, sweep points, fixed-point links); 0 uses GOMAXPROCS, 1 forces
// sequential execution, and every setting prints identical output. Each
// simulation run is one sequential event loop; parallelism is across runs.
//
// Failure flags: -rates (availability outage-rate grid), -mtbf/-mttr inject
// seeded random outages into custom runs (availability always injects; its
// MTBF grid is 1/rate), -failures plan.json replays a scripted plan
// (custom), -failover drop|reroute picks the in-flight handling mode. See
// internal/sim.FailurePlan and DESIGN.md §11.
//
// Observability flags (any experiment): -events stream.jsonl writes the full
// simulation event stream as JSONL; -metrics out.json writes a counters-and-
// histograms snapshot on exit; -pprof addr serves net/http/pprof, expvar and
// a Prometheus-format /metrics endpoint; -progress 2s prints a progress line
// to stderr (cumulative counters, events/sec, latest windowed blocking);
// -window T sets the width of the streamed time-series windows (default 5,
// 0 disables). See internal/obs and internal/obs/timeseries.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/netio"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seeds := fs.Int("seeds", 10, "simulation seeds per point")
	warmup := fs.Float64("warmup", 10, "warm-up period (holding times)")
	horizon := fs.Float64("horizon", 110, "run horizon (holding times)")
	loadsFlag := fs.String("loads", "", "comma-separated sweep loads (default: experiment grid)")
	hFlag := fs.Int("H", 0, "maximum alternate hop length (0 = experiment default)")
	csvPath := fs.String("csv", "", "also write sweep data as CSV to this file (quad/nsfnet/h6/ottkrishnan)")
	scenario := fs.String("scenario", "", "scenario JSON file (custom)")
	parallel := fs.Int("parallel", 0, "worker goroutines per parallel stage (0 = GOMAXPROCS, 1 = sequential; results identical)")
	pops := fs.Int("pops", 25, "points of presence in the metro topology (metro)")
	popSize := fs.Int("popsize", 4, "nodes per point of presence (metro)")
	ratesFlag := fs.String("rates", "", "comma-separated per-link outage rates (availability; default grid)")
	mtbf := fs.Float64("mtbf", 0, "mean time between link failures, holding times (custom; 0 = no random outages)")
	mttr := fs.Float64("mttr", 0.5, "mean link repair time, holding times (availability/custom)")
	failuresPath := fs.String("failures", "", "scripted failure-plan JSON file (custom)")
	failoverFlag := fs.String("failover", "drop", `in-flight calls on a failed link: "drop" or "reroute"`)
	of := registerObsFlags(fs)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if err := checkSpan(*warmup, *horizon); err != nil {
		fmt.Fprintln(os.Stderr, "altsim:", err)
		usage()
		os.Exit(2)
	}
	p := experiments.SimParams{Seeds: *seeds, Warmup: *warmup, Horizon: *horizon, Parallelism: *parallel}
	obsFinish = of.setup(&p)
	defer obsFinish()
	loads, err := parseLoads(*loadsFlag)
	if err != nil {
		fatal(err)
	}
	rates, err := parseLoads(*ratesFlag)
	if err != nil {
		fatal(err)
	}
	failover, err := parseFailover(*failoverFlag)
	if err != nil {
		fatal(err)
	}

	emit := func(sweep *experiments.Sweep) {
		fmt.Print(sweep)
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			if err := sweep.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "altsim: wrote %s\n", *csvPath)
		}
	}

	switch cmd {
	case "fig2":
		fmt.Print(experiments.Fig2(0, nil))
	case "quad":
		emit(must(experiments.Quadrangle(loads, *hFlag, p)))
	case "table1":
		fmt.Print(must(experiments.Table1()))
	case "nsfnet":
		emit(must(experiments.NSFNetSweep(loads, pick(*hFlag, 11), false, p)))
	case "h6":
		for _, h := range []int{11, 6} {
			fmt.Println(must(experiments.CensusNSFNet(h)))
		}
		emit(must(experiments.NSFNetSweep(loads, 6, false, p)))
	case "failures":
		for _, fr := range must(experiments.LinkFailures(loads, pick(*hFlag, 11), p)) {
			fmt.Print(fr.Sweep)
			fmt.Println()
		}
	case "skew":
		fmt.Print(must(experiments.Skewness(10, pick(*hFlag, 6), p)))
	case "minloss":
		fmt.Print(experiments.RenderMinLoss(must(experiments.MinLossStudy(loads, pick(*hFlag, 11), p))))
	case "ottkrishnan":
		emit(must(experiments.NSFNetSweep(loads, pick(*hFlag, 11), true, p)))
	case "mitragibbens":
		rows := must(experiments.MitraGibbens(experiments.MitraGibbensOptions{Loads: loads, Sim: p}))
		fmt.Print(experiments.RenderMitraGibbens(rows))
	case "cellular":
		fmt.Print(experiments.RenderCellular(must(experiments.Cellular(loads, *seeds))))
	case "robust":
		fmt.Print(experiments.RenderRobustness(must(experiments.Robustness(loads, pick(*hFlag, 11), p))))
	case "signaling":
		fmt.Print(experiments.RenderSignaling(must(experiments.Signaling(nil, pick(*hFlag, 11), p))))
	case "multirate":
		fmt.Print(experiments.RenderMultiRate(must(experiments.MultiRate(loads, *seeds))))
	case "fixedpoint":
		fmt.Print(experiments.RenderFixedPoint(must(experiments.FixedPointStudy(loads, p))))
	case "overflow":
		fmt.Print(experiments.RenderOverflowRule(must(experiments.OverflowRuleStudy(loads, pick(*hFlag, 11), p))))
	case "ramp":
		fmt.Print(experiments.RenderRamp(must(experiments.RampRobustness(p))))
	case "dalfar":
		fmt.Print(must(experiments.Dalfar()))
	case "hvariants":
		fmt.Print(experiments.RenderHVariants(must(experiments.HVariants(loads, p))))
	case "capacity":
		printCapacity(pick(*hFlag, 11), p)
	case "insensitivity":
		fmt.Print(experiments.RenderInsensitivity(must(experiments.Insensitivity(pick(*hFlag, 11), p))))
	case "retrials":
		fmt.Print(experiments.RenderRetrials(must(experiments.Retrials(nil, pick(*hFlag, 11), p))))
	case "generalize":
		fmt.Print(experiments.RenderGeneralMesh(must(experiments.GeneralMesh(10, p))))
	case "peakedness":
		fmt.Print(must(experiments.Peakedness(10, pick(*hFlag, 11), p)))
	case "focused":
		fmt.Print(experiments.RenderFocused(must(experiments.FocusedOverload(loads, pick(*hFlag, 11), p))))
	case "availability":
		load := 0.0
		if len(loads) > 0 {
			load = loads[0]
		}
		av := must(experiments.NSFNetAvailability(load, rates, pick(*hFlag, 11), *mttr, failover, p))
		fmt.Print(av)
	case "custom":
		runCustom(*scenario, *hFlag, failureOpts{
			planPath: *failuresPath, mtbf: *mtbf, mttr: *mttr, mode: failover,
		}, p)
	case "metro":
		runMetro(*pops, *popSize, *hFlag, loads, failureOpts{
			planPath: *failuresPath, mtbf: *mtbf, mttr: *mttr, mode: failover,
		}, p)
	case "export-scenario":
		exportScenario()
	case "dot":
		g := netmodel.NSFNet()
		if *scenario != "" {
			f, err := os.Open(*scenario)
			if err != nil {
				fatal(err)
			}
			scen, err := netio.Read(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			if g, _, err = scen.Build(); err != nil {
				fatal(err)
			}
		}
		if err := g.WriteDOT(os.Stdout, "", true); err != nil {
			fatal(err)
		}
	case "verify":
		runVerify(p)
	case "report":
		if err := experiments.WriteReport(os.Stdout, experiments.ReportOptions{
			Sim: p, IncludeExtensions: true, Timestamp: time.Now(),
		}); err != nil {
			fatal(err)
		}
	case "bound":
		printBounds()
	case "all":
		runAll(p)
	default:
		usage()
		os.Exit(2)
	}
}

func runAll(p experiments.SimParams) {
	fmt.Print(experiments.Fig2(0, nil))
	fmt.Println()
	fmt.Print(must(experiments.Quadrangle(nil, 0, p)))
	fmt.Println()
	fmt.Print(must(experiments.Table1()))
	fmt.Println()
	for _, h := range []int{11, 6} {
		fmt.Println(must(experiments.CensusNSFNet(h)))
	}
	fmt.Print(must(experiments.NSFNetSweep(nil, 11, true, p)))
	fmt.Println()
	fmt.Print(must(experiments.NSFNetSweep(nil, 6, false, p)))
	fmt.Println()
	for _, fr := range must(experiments.LinkFailures(nil, 11, p)) {
		fmt.Print(fr.Sweep)
		fmt.Println()
	}
	fmt.Print(must(experiments.Skewness(10, 6, p)))
	fmt.Println()
	fmt.Print(experiments.RenderMinLoss(must(experiments.MinLossStudy(nil, 11, p))))
	fmt.Println()
	fmt.Print(experiments.RenderMitraGibbens(must(experiments.MitraGibbens(experiments.MitraGibbensOptions{Sim: p}))))
	fmt.Println()
	fmt.Print(experiments.RenderCellular(must(experiments.Cellular(nil, p.Seeds))))
	fmt.Println()
	fmt.Print(experiments.RenderRobustness(must(experiments.Robustness(nil, 11, p))))
	fmt.Println()
	fmt.Print(experiments.RenderSignaling(must(experiments.Signaling(nil, 11, p))))
	fmt.Println()
	fmt.Print(experiments.RenderMultiRate(must(experiments.MultiRate(nil, p.Seeds))))
	fmt.Println()
	fmt.Print(experiments.RenderFixedPoint(must(experiments.FixedPointStudy(nil, p))))
	fmt.Println()
	fmt.Print(experiments.RenderOverflowRule(must(experiments.OverflowRuleStudy(nil, 11, p))))
	fmt.Println()
	fmt.Print(experiments.RenderRamp(must(experiments.RampRobustness(p))))
	fmt.Println()
	fmt.Print(must(experiments.Dalfar()))
	fmt.Println()
	fmt.Print(experiments.RenderHVariants(must(experiments.HVariants(nil, p))))
	fmt.Println()
	fmt.Print(experiments.RenderFocused(must(experiments.FocusedOverload(nil, 11, p))))
	fmt.Println()
	fmt.Print(must(experiments.Peakedness(10, 11, p)))
	fmt.Println()
	fmt.Print(experiments.RenderGeneralMesh(must(experiments.GeneralMesh(10, p))))
	fmt.Println()
	fmt.Print(experiments.RenderRetrials(must(experiments.Retrials(nil, 11, p))))
	fmt.Println()
	fmt.Print(experiments.RenderInsensitivity(must(experiments.Insensitivity(11, p))))
	fmt.Println()
	printBounds()
	fmt.Println()
	printCapacity(11, p)
}

// printCapacity prints the NSFNet capacity headroom at a 1% grade of
// service under hop limit h.
func printCapacity(h int, p experiments.SimParams) {
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		fatal(err)
	}
	res := must(experiments.CapacityHeadroom(netmodel.NSFNet(), nominal, h, 0.01, p))
	fmt.Print(experiments.RenderCapacity(0.01, res))
}

func printBounds() {
	fmt.Println("Erlang bounds")
	qg := netmodel.Quadrangle()
	for _, rho := range []float64{80, 90, 100, 110} {
		res, err := bound.ErlangBound(qg, traffic.Uniform(4, rho))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  quadrangle %4.0f E/pair: %.5f\n", rho, res.Blocking)
	}
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		fatal(err)
	}
	ng := netmodel.NSFNet()
	for _, load := range []float64{8, 10, 12, 14, 16} {
		res, err := bound.ErlangBound(ng, nominal.Scaled(load/10))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  nsfnet load %4.0f: %.5f (cut mask %b)\n", load, res.Blocking, res.Cut.Mask)
	}
}

func parseLoads(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkSpan rejects a non-finite -warmup or -horizon, which flag parsing
// accepts ("NaN", "Inf"): no run over such a span ever ends.
func checkSpan(warmup, horizon float64) error {
	if math.IsNaN(warmup) || math.IsInf(warmup, 0) || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return fmt.Errorf("-warmup %v and -horizon %v must be finite", warmup, horizon)
	}
	return nil
}

// parseFailover maps the -failover flag to a sim.FailoverMode.
func parseFailover(s string) (sim.FailoverMode, error) {
	switch s {
	case "", "drop":
		return sim.FailoverDrop, nil
	case "reroute":
		return sim.FailoverReroute, nil
	}
	return 0, fmt.Errorf("unknown -failover %q (want drop or reroute)", s)
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

// obsFinish flushes observability outputs (event stream, metrics snapshot);
// set once flags are parsed so fatal exits still persist what was captured.
var obsFinish = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "altsim:", err)
	obsFinish()
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: altsim <experiment> [flags]
experiments: fig2 quad table1 nsfnet h6 failures skew minloss ottkrishnan
             mitragibbens cellular robust signaling multirate fixedpoint
             overflow ramp dalfar hvariants focused peakedness generalize
             retrials insensitivity capacity availability custom metro
             export-scenario dot verify report bound all
flags: -seeds N -warmup T -horizon T -loads a,b,c -H n -csv file -parallel N
       -pops N -popsize N
       -rates a,b,c -mtbf T -mttr T -failures plan.json -failover drop|reroute
       -events stream.jsonl -metrics out.json -pprof addr -progress 2s
       -window T`)
}

// failureOpts carries the CLI's dynamic-failure settings into custom runs:
// a scripted plan file, or seeded random outages when mtbf > 0.
type failureOpts struct {
	planPath   string
	mtbf, mttr float64
	mode       sim.FailoverMode
}

// active reports whether any failure injection was requested.
func (fo failureOpts) active() bool { return fo.planPath != "" || fo.mtbf > 0 }

// plan returns the failure plan for one seed: the scripted file verbatim
// (identical for every seed), or generated duplex outages on the seed's own
// substream.
func (fo failureOpts) plan(g *graph.Graph, scripted *sim.FailurePlan, horizon float64, seed int64) (*sim.FailurePlan, error) {
	if scripted != nil {
		return scripted, nil
	}
	if fo.mtbf <= 0 {
		return nil, nil
	}
	return sim.GenerateOutages(g, horizon, sim.OutageParams{
		MTBF: fo.mtbf, MTTR: fo.mttr, Duplex: true, Seed: seed,
	})
}

// runCustom executes the single-path / uncontrolled / controlled comparison
// on a user-supplied scenario file, optionally under failure injection.
func runCustom(path string, h int, fo failureOpts, p experiments.SimParams) {
	if path == "" {
		fatal(fmt.Errorf("custom requires -scenario file.json (see export-scenario for a template)"))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	scen, err := netio.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	g, m, err := scen.Build()
	if err != nil {
		fatal(err)
	}
	if h == 0 {
		h = scen.H
	}
	runComparison(scen.Name, g, m, h, fo, p)
}

// runMetro executes the same three-policy comparison on the synthetic
// metro topology (netmodel.Metro) under its locality-weighted workload:
// the named large-network scenario (pop cliques carry almost all traffic,
// the gateway ring only the thin cross-pop share).
func runMetro(pops, popSize, h int, loads []float64, fo failureOpts, p experiments.SimParams) {
	intra, inter := 6.0, 0.01
	if len(loads) > 0 {
		intra = loads[0]
	}
	if len(loads) > 1 {
		inter = loads[1]
	}
	g := netmodel.Metro(pops, popSize, 30, 60)
	m := traffic.MetroLocality(pops, popSize, intra, inter)
	if h == 0 {
		h = 2
	}
	name := fmt.Sprintf("metro %d pops × %d nodes (intra %g E, inter %g E)", pops, popSize, intra, inter)
	runComparison(name, g, m, h, fo, p)
}

// runComparison is the shared body of the custom and metro experiments:
// derive a scheme at H=h and compare the three core policies under common
// random numbers, optionally with failure injection.
func runComparison(name string, g *graph.Graph, m *traffic.Matrix, h int, fo failureOpts, p experiments.SimParams) {
	scheme, err := core.New(g, m, core.Options{H: h})
	if err != nil {
		fatal(err)
	}
	if p.Seeds <= 0 {
		p.Seeds = 10
	}
	if p.Warmup <= 0 {
		p.Warmup = 10
	}
	if p.Horizon <= 0 {
		p.Horizon = p.Warmup + 100
	}
	var scripted *sim.FailurePlan
	if fo.planPath != "" {
		pf, err := os.Open(fo.planPath)
		if err != nil {
			fatal(err)
		}
		scripted, err = sim.ReadFailurePlanJSON(pf, g)
		pf.Close()
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("scenario %q: %d nodes, %d links, %.1f Erlangs offered, H=%d\n",
		name, g.NumNodes(), g.NumLinks(), m.Total(), scheme.H)
	if fo.active() {
		src := fmt.Sprintf("plan %s", fo.planPath)
		if scripted == nil {
			src = fmt.Sprintf("random outages MTBF=%g MTTR=%g", fo.mtbf, fo.mttr)
		}
		fmt.Printf("failures: %s, failover=%s\n", src, fo.mode)
		fmt.Printf("%-24s %12s %12s %12s %14s\n", "policy", "blocking", "±95%", "lost", "calls/unit")
	} else {
		fmt.Printf("%-24s %12s %12s %14s\n", "policy", "blocking", "±95%", "calls/unit")
	}
	for _, pol := range []sim.Policy{scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled()} {
		var xs, tps, lost []float64
		for seed := 0; seed < p.Seeds; seed++ {
			// Streaming arrivals: the generator's per-pair substreams make a
			// fresh stream per policy replay the identical call sequence
			// (common random numbers) in O(pairs) memory.
			src, err := sim.NewStream(m, p.Horizon, int64(seed))
			if err != nil {
				fatal(err)
			}
			plan, err := fo.plan(g, scripted, p.Horizon, int64(seed))
			if err != nil {
				fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Graph: g, Policy: pol, Source: src, Warmup: p.Warmup,
				Failures: plan, Failover: fo.mode,
				Sink: p.Sink, OccupancyEvents: p.OccupancyEvents,
				WindowLength: p.WindowLength,
			})
			if err != nil {
				fatal(err)
			}
			xs = append(xs, res.Blocking())
			tps = append(tps, res.Throughput())
			lost = append(lost, float64(res.LostToFailure)/float64(res.Offered))
			if p.Metrics != nil {
				p.Metrics.AddSpan(res.Span)
			}
		}
		sum := stats.Summarize(xs)
		tsum := stats.Summarize(tps)
		if fo.active() {
			lsum := stats.Summarize(lost)
			fmt.Printf("%-24s %12.5f %12.5f %12.5f %14.1f\n",
				pol.Name(), sum.Mean, sum.HalfWidth95, lsum.Mean, tsum.Mean)
		} else {
			fmt.Printf("%-24s %12.5f %12.5f %14.1f\n", pol.Name(), sum.Mean, sum.HalfWidth95, tsum.Mean)
		}
	}
	if eb, err := bound.ErlangBound(g, m); err == nil {
		fmt.Printf("%-24s %12.5f\n", "erlang-bound", eb.Blocking)
	}
}

// exportScenario writes the NSFNet scenario (reconstructed nominal traffic)
// to stdout as a template for custom runs.
func exportScenario() {
	g := netmodel.NSFNet()
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		fatal(err)
	}
	scen, err := netio.FromNetwork("nsfnet-t3-nominal", g, nominal, 11)
	if err != nil {
		fatal(err)
	}
	if err := scen.Write(os.Stdout); err != nil {
		fatal(err)
	}
}

// runVerify executes a fast end-to-end self-check of the reproduction's
// headline claims and exits nonzero on any failure — the CI entry point.
func runVerify(p experiments.SimParams) {
	failures := 0
	check := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%-52s %s  %s\n", name, status, detail)
	}

	tbl, err := experiments.Table1()
	if err != nil {
		fatal(err)
	}
	check("Table 1: fitted loads match published Λ",
		tbl.MaxLoadError < 1e-4, fmt.Sprintf("max |ΔΛ| = %.2g", tbl.MaxLoadError))
	check("Table 1: protection levels (H=11)",
		tbl.ExactR11 == 30, fmt.Sprintf("%d/30 exact", tbl.ExactR11))
	check("Table 1: protection levels (H=6)",
		tbl.ExactR6 >= 26, fmt.Sprintf("%d/30 exact (rest on rounding steps)", tbl.ExactR6))

	census, err := experiments.CensusNSFNet(11)
	if err != nil {
		fatal(err)
	}
	check("§4.2.2 path census (H=11: ≈9 mean, 5 min, 15 max)",
		census.MinAlternates == 5 && census.MaxAlternates == 15 &&
			census.MeanAlternates > 8 && census.MeanAlternates < 10,
		census.String())

	if p.Seeds > 4 {
		p.Seeds = 4
	}
	if p.Horizon > 60 {
		p.Horizon = 60
	}
	sweep, err := experiments.Quadrangle([]float64{85, 100}, 0, p)
	if err != nil {
		fatal(err)
	}
	at := func(name string, x float64) float64 {
		for _, pt := range sweep.SeriesByName(name).Points {
			if pt.X == x {
				return pt.Y
			}
		}
		return -1
	}
	check("quadrangle: controlled beats both at 85 E",
		at("controlled-alternate", 85) < at("single-path", 85) &&
			at("controlled-alternate", 85) < at("uncontrolled-alternate", 85),
		fmt.Sprintf("ctrl %.4f vs single %.4f, unc %.4f",
			at("controlled-alternate", 85), at("single-path", 85), at("uncontrolled-alternate", 85)))
	check("quadrangle: uncontrolled collapses at 100 E",
		at("uncontrolled-alternate", 100) > at("single-path", 100),
		fmt.Sprintf("unc %.4f vs single %.4f", at("uncontrolled-alternate", 100), at("single-path", 100)))
	check("quadrangle: guarantee (controlled <= single + ε)",
		at("controlled-alternate", 100) <= at("single-path", 100)+0.005,
		fmt.Sprintf("ctrl %.4f vs single %.4f", at("controlled-alternate", 100), at("single-path", 100)))

	if failures > 0 {
		fmt.Printf("%d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("all reproduction self-checks passed")
}
