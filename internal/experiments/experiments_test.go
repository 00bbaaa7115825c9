package experiments

import (
	"strings"
	"testing"

	"repro/internal/cellular"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// fastParams keeps unit tests quick; the cmd harness and benchmarks use the
// paper's full 10-seed settings.
var fastParams = SimParams{Seeds: 3, Warmup: 10, Horizon: 60}

func TestFig2MatchesPaperAnchors(t *testing.T) {
	res := Fig2(0, nil)
	if res.Capacity != 100 || len(res.Curves) != 3 {
		t.Fatalf("unexpected shape: C=%d curves=%d", res.Capacity, len(res.Curves))
	}
	byH := map[int]Fig2Curve{}
	for _, c := range res.Curves {
		byH[c.H] = c
	}
	// Anchors from Table 1 (H=6) and §3.2 ("r ∈ [10,20] for loads of 50
	// Erlangs" holds for H ∈ [1000, 2000]; for H=120 at 50 E the r is below
	// that range).
	if got := byH[6].R[74-1]; got != 7 {
		t.Errorf("H=6 Λ=74: r=%d, want 7", got)
	}
	if got := byH[2].R[74-1]; got > 7 {
		t.Errorf("H=2 r must be <= H=6 r, got %d", got)
	}
	if got := byH[120].R[74-1]; got < 7 {
		t.Errorf("H=120 r must be >= H=6 r, got %d", got)
	}
	// Monotone in load along each curve.
	for _, c := range res.Curves {
		for i := 1; i < len(c.R); i++ {
			if c.R[i] < c.R[i-1] {
				t.Errorf("H=%d: r not monotone at Λ=%v", c.H, c.Loads[i])
			}
		}
	}
	if s := res.String(); !strings.Contains(s, "Figure 2") {
		t.Error("String() missing title")
	}
}

func TestQuadrangleSweepShape(t *testing.T) {
	// The §4.1 qualitative claims at three pivotal loads: uncontrolled wins
	// at 80, controlled ≤ single-path everywhere, uncontrolled collapses
	// above single-path at 100.
	sweep, err := Quadrangle([]float64{80, 90, 100}, 0, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	single := sweep.SeriesByName("single-path")
	unc := sweep.SeriesByName("uncontrolled-alternate")
	ctrl := sweep.SeriesByName("controlled-alternate")
	bnd := sweep.SeriesByName("erlang-bound")
	if single == nil || unc == nil || ctrl == nil || bnd == nil {
		t.Fatal("missing series")
	}
	at := func(s *Series, x float64) float64 {
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
		t.Fatalf("no point at %v", x)
		return 0
	}
	if !(at(unc, 80) < at(single, 80)) {
		t.Errorf("at 80 E uncontrolled (%v) should beat single-path (%v)", at(unc, 80), at(single, 80))
	}
	if !(at(unc, 100) > at(single, 100)) {
		t.Errorf("at 100 E uncontrolled (%v) should exceed single-path (%v)", at(unc, 100), at(single, 100))
	}
	for _, x := range []float64{80, 90, 100} {
		if at(ctrl, x)-at(single, x) > 0.004 {
			t.Errorf("at %v E controlled (%v) clearly worse than single-path (%v)", x, at(ctrl, x), at(single, x))
		}
		if at(bnd, x) > at(ctrl, x)+0.003 {
			t.Errorf("at %v E bound (%v) above controlled blocking (%v)", x, at(bnd, x), at(ctrl, x))
		}
	}
	if s := sweep.String(); !strings.Contains(s, "quadrangle") {
		t.Error("String() missing title")
	}
}

func TestTable1Reproduction(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := res.Verify(1e-4, 26); err != nil {
		t.Error(err)
	}
	if s := res.String(); !strings.Contains(s, "Table 1") {
		t.Error("String() missing title")
	}
}

func TestCensusNSFNetH11(t *testing.T) {
	c, err := CensusNSFNet(11)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pairs != 132 || c.MinAlternates != 5 || c.MaxAlternates != 15 {
		t.Errorf("census %+v does not match the paper (min 5, max 15)", c)
	}
	if c.MeanAlternates < 8 || c.MeanAlternates > 10 {
		t.Errorf("mean alternates %.2f, paper reports about 9", c.MeanAlternates)
	}
	if !strings.Contains(c.String(), "H=11") {
		t.Error("census String() malformed")
	}
}

func TestNSFNetSweepShape(t *testing.T) {
	// Controlled tracks ≤ single-path at and above nominal; uncontrolled
	// crosses above single-path well past nominal (load 14).
	sweep, err := NSFNetSweep([]float64{10, 14}, 11, false, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	at := func(name string, x float64) float64 {
		s := sweep.SeriesByName(name)
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
		t.Fatalf("no point at %v", x)
		return 0
	}
	if at("controlled-alternate", 10)-at("single-path", 10) > 0.005 {
		t.Errorf("controlled (%v) clearly worse than single (%v) at nominal",
			at("controlled-alternate", 10), at("single-path", 10))
	}
	if at("uncontrolled-alternate", 14) <= at("single-path", 14) {
		t.Errorf("uncontrolled (%v) should exceed single-path (%v) at load 14",
			at("uncontrolled-alternate", 14), at("single-path", 14))
	}
	if at("erlang-bound", 10) <= 0 {
		t.Error("bound should be positive at nominal (overloaded links)")
	}
}

func TestLinkFailuresPreserveOrdering(t *testing.T) {
	res, err := LinkFailures([]float64{12}, 11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("scenarios = %d", len(res))
	}
	for _, fr := range res {
		single := fr.Sweep.SeriesByName("single-path").Points[0].Y
		ctrl := fr.Sweep.SeriesByName("controlled-alternate").Points[0].Y
		if ctrl-single > 0.005 {
			t.Errorf("%s: controlled (%v) clearly worse than single-path (%v)", fr.Scenario, ctrl, single)
		}
		if single <= 0 {
			t.Errorf("%s: expected nonzero blocking at load 12", fr.Scenario)
		}
	}
}

func TestSkewnessOrdering(t *testing.T) {
	res, err := Skewness(10, 6, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's fairness ordering: single-path most skewed, uncontrolled
	// least, controlled in between (compare spread via CV).
	cvS := res.CV["single-path"]
	cvU := res.CV["uncontrolled-alternate"]
	cvC := res.CV["controlled-alternate"]
	if !(cvS > cvU) {
		t.Errorf("CV single (%v) should exceed CV uncontrolled (%v)", cvS, cvU)
	}
	if !(cvC <= cvS) {
		t.Errorf("CV controlled (%v) should not exceed CV single (%v)", cvC, cvS)
	}
	if !strings.Contains(res.String(), "policy") {
		t.Error("String() malformed")
	}
}

func TestMinLossStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("min-loss study is slow")
	}
	pts, err := MinLossStudy([]float64{10}, 11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if pt.BifurcatedPairs == 0 {
		t.Error("expected bifurcated primaries at nominal load")
	}
	// Paper: min-loss primaries beat min-hop under single-path routing...
	if pt.MinLossSingle.Mean >= pt.MinHopSingle.Mean {
		t.Errorf("min-loss single (%v) should beat min-hop single (%v)",
			pt.MinLossSingle.Mean, pt.MinHopSingle.Mean)
	}
	// ...and become nearly coincident with controlled alternate routing
	// (within 2 points of blocking at a ~15% blocking operating point —
	// indistinguishable at the paper's figure scale; we measure min-loss
	// slightly ahead).
	if diff := pt.MinLossControlled.Mean - pt.MinHopControlled.Mean; diff > 0.02 || diff < -0.02 {
		t.Errorf("controlled results should nearly coincide: min-hop %v vs min-loss %v",
			pt.MinHopControlled.Mean, pt.MinLossControlled.Mean)
	}
	if !strings.Contains(RenderMinLoss(pts), "minloss") {
		t.Error("render malformed")
	}
}

func TestMitraGibbensWithinTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("protection-level search is slow")
	}
	rows, err := MitraGibbens(MitraGibbensOptions{
		Loads: []float64{110, 120},
		MaxR:  10,
		Sim:   SimParams{Seeds: 3, Warmup: 10, Horizon: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		diff := r.OurR - r.BestSimR
		if diff < 0 {
			diff = -diff
		}
		if diff > 3 {
			t.Errorf("Λ=%v: our r=%d vs simulated best r=%d differ by %d (paper: at most ~2)",
				r.Load, r.OurR, r.BestSimR, diff)
		}
	}
	if !strings.Contains(RenderMitraGibbens(rows), "C=120") {
		t.Error("render malformed")
	}
}

func TestCellularStudy(t *testing.T) {
	pts, err := Cellular([]float64{44, 60}, SimParams{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// At moderate load borrowing helps or matches; at heavy overload the
	// uncontrolled discipline must be the worst of the three.
	heavy := pts[1]
	nb := heavy.Blocking[cellular.NoBorrowing].Mean
	un := heavy.Blocking[cellular.UncontrolledBorrowing].Mean
	ct := heavy.Blocking[cellular.ControlledBorrowing].Mean
	if un <= nb {
		t.Errorf("overload: uncontrolled (%v) should exceed no-borrowing (%v)", un, nb)
	}
	if ct > nb+0.005 {
		t.Errorf("overload: controlled (%v) clearly worse than no-borrowing (%v)", ct, nb)
	}
	if !strings.Contains(RenderCellular(pts), "borrow") {
		t.Error("render malformed")
	}
}

func TestRobustnessStudy(t *testing.T) {
	pts, err := Robustness([]float64{10}, 11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	// Adaptive must track the oracle within a small margin and both must be
	// no worse than single-path (the scheme's guarantee).
	if pt.Adaptive.Mean > pt.Oracle.Mean+0.02 {
		t.Errorf("adaptive %v much worse than oracle %v", pt.Adaptive.Mean, pt.Oracle.Mean)
	}
	if pt.Oracle.Mean > pt.SinglePath.Mean+0.005 {
		t.Errorf("oracle controlled %v worse than single-path %v", pt.Oracle.Mean, pt.SinglePath.Mean)
	}
	if !strings.Contains(RenderRobustness(pts), "oracle") {
		t.Error("render malformed")
	}
}

func TestSignalingStudy(t *testing.T) {
	pts, err := Signaling([]float64{0, 0.01}, 11, SimParams{Seeds: 2, Warmup: 10, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].HopDelay != 0 || pts[0].BookingFailures != 0 {
		t.Errorf("zero-delay point malformed: %+v", pts[0])
	}
	if pts[1].MeanSetupRTT <= 0 {
		t.Error("latency point should have positive mean RTT")
	}
	// Small signaling latency must not change blocking dramatically.
	if d := pts[1].Blocking.Mean - pts[0].Blocking.Mean; d > 0.03 || d < -0.03 {
		t.Errorf("blocking moved by %v under 0.01 hop delay", d)
	}
	if !strings.Contains(RenderSignaling(pts), "hop delay") {
		t.Error("render malformed")
	}
}

func TestMultiRateStudy(t *testing.T) {
	pts, err := MultiRate([]float64{85, 100}, SimParams{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		s := pt.Blocking[multiRateSingle()].Mean
		c := pt.Blocking[multiRateControlled()].Mean
		if c > s+0.006 {
			t.Errorf("w=%v: controlled (%v) clearly worse than single-path (%v)",
				pt.VoiceLoad+6*pt.VideoLoad, c, s)
		}
		// Wide calls always block at least as much as the average.
		if pt.VideoBlocking[multiRateSingle()].Mean < s-1e-9 {
			t.Errorf("video blocking below average under single-path")
		}
		if pt.Protection <= 0 {
			t.Errorf("protection %d", pt.Protection)
		}
	}
	if !strings.Contains(RenderMultiRate(pts), "Multi-rate") {
		t.Error("render malformed")
	}
}

func TestFixedPointStudy(t *testing.T) {
	pts, err := FixedPointStudy([]float64{10}, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if d := pt.Analytic - pt.Simulated.Mean; d > 0.02 || d < -0.02 {
		t.Errorf("analytic %v vs simulated %v", pt.Analytic, pt.Simulated.Mean)
	}
	if pt.Iterations <= 0 {
		t.Error("no iterations recorded")
	}
	if !strings.Contains(RenderFixedPoint(pts), "fixed-point") {
		t.Error("render malformed")
	}
}

func TestOverflowRuleStudy(t *testing.T) {
	pts, err := OverflowRuleStudy([]float64{12}, 11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	// Both protected disciplines stay at or below single-path.
	if pt.Shortest.Mean > pt.SinglePath.Mean+0.005 {
		t.Errorf("shortest-first %v worse than single %v", pt.Shortest.Mean, pt.SinglePath.Mean)
	}
	if pt.LeastBusy.Mean > pt.SinglePath.Mean+0.005 {
		t.Errorf("least-busy %v worse than single %v", pt.LeastBusy.Mean, pt.SinglePath.Mean)
	}
	if !strings.Contains(RenderOverflowRule(pts), "ablation") {
		t.Error("render malformed")
	}
}

func TestRampRobustness(t *testing.T) {
	pts, err := RampRobustness(fastParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("profiles = %d", len(pts))
	}
	for _, pt := range pts {
		// Static nominal-engineered protection must stay at or below the
		// single-path baseline even under the nonstationary profiles (the
		// robustness claim), and the adaptive variant must track it.
		if pt.Static.Mean > pt.SinglePath.Mean+0.006 {
			t.Errorf("%s: static %v worse than single-path %v", pt.Name, pt.Static.Mean, pt.SinglePath.Mean)
		}
		if pt.Adaptive.Mean > pt.Static.Mean+0.02 {
			t.Errorf("%s: adaptive %v much worse than static %v", pt.Name, pt.Adaptive.Mean, pt.Static.Mean)
		}
	}
	if !strings.Contains(RenderRamp(pts), "Nonstationary") {
		t.Error("render malformed")
	}
}

func TestDalfarStudy(t *testing.T) {
	res, err := Dalfar()
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsVerified != 132 {
		t.Errorf("verified %d pairs, want 132", res.PairsVerified)
	}
	if res.Rounds <= 0 || res.Rounds > 7 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.DownhillAlternates == 0 {
		t.Error("no downhill alternates found")
	}
	if res.FailureRounds < res.Rounds {
		t.Errorf("failure reconvergence (%d rounds) should not beat intact (%d)",
			res.FailureRounds, res.Rounds)
	}
	if !strings.Contains(res.String(), "DALFAR") {
		t.Error("render malformed")
	}
}

func TestSweepExport(t *testing.T) {
	sweep, err := Quadrangle([]float64{80}, 0, SimParams{Seeds: 1, Warmup: 5, Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonBuf strings.Builder
	if err := sweep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	if !strings.Contains(out, "single-path") || !strings.Contains(out, "erlang-bound") {
		t.Errorf("CSV missing series: %q", out)
	}
	lines := strings.Count(strings.TrimSpace(out), "\n") + 1
	if lines != 2 { // header + one load row
		t.Errorf("CSV has %d lines, want 2", lines)
	}
	if err := sweep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), "\"Series\"") {
		t.Error("JSON missing Series field")
	}
	// Empty sweep CSV: header only, no error.
	var empty Sweep
	var b strings.Builder
	if err := empty.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
}

func TestHVariants(t *testing.T) {
	pts, err := HVariants([]float64{10}, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	single := pt.Blocking["single-path"].Mean
	for _, name := range HVariantNames[1:] {
		got, ok := pt.Blocking[name]
		if !ok {
			t.Fatalf("missing strategy %q", name)
		}
		// Every protected variant preserves the guarantee.
		if got.Mean > single+0.006 {
			t.Errorf("%s blocking %v clearly worse than single-path %v", name, got.Mean, single)
		}
	}
	if !strings.Contains(RenderHVariants(pts), "per-link") {
		t.Error("render malformed")
	}
}

func TestFocusedOverload(t *testing.T) {
	pts, err := FocusedOverload([]float64{1, 50}, 11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	base, hot := pts[0], pts[1]
	// Uncontrolled alternate routing absorbs the hot pair's overload far
	// better than single-path (the hot pair's calls detour).
	if !(hot.HotPair["uncontrolled-alternate"].Mean < hot.HotPair["single-path"].Mean*0.8) {
		t.Errorf("uncontrolled hot-pair %v should be well below single-path %v",
			hot.HotPair["uncontrolled-alternate"].Mean, hot.HotPair["single-path"].Mean)
	}
	// The controlled scheme refuses those detours (every path into node 11
	// crosses an r=C link) — hot-pair blocking tracks single-path.
	if d := hot.HotPair["controlled-alternate"].Mean - hot.HotPair["single-path"].Mean; d > 0.01 || d < -0.05 {
		t.Errorf("controlled hot-pair %v should track single-path %v",
			hot.HotPair["controlled-alternate"].Mean, hot.HotPair["single-path"].Mean)
	}
	// Background guarantee: controlled stays at or below single-path.
	if hot.Background["controlled-alternate"].Mean > hot.Background["single-path"].Mean+0.006 {
		t.Errorf("controlled background %v exceeds single-path %v",
			hot.Background["controlled-alternate"].Mean, hot.Background["single-path"].Mean)
	}
	// Background degradation (factor 1 → 50) is milder under control than
	// under uncontrolled overflow.
	dUnc := hot.Background["uncontrolled-alternate"].Mean - base.Background["uncontrolled-alternate"].Mean
	dCtrl := hot.Background["controlled-alternate"].Mean - base.Background["controlled-alternate"].Mean
	if dCtrl > dUnc+0.003 {
		t.Errorf("controlled background degraded by %v vs uncontrolled %v", dCtrl, dUnc)
	}
	if !strings.Contains(RenderFocused(pts), "Focused overload") {
		t.Error("render malformed")
	}
}

func TestPeakedness(t *testing.T) {
	res, err := Peakedness(10, 11, SimParams{Seeds: 4, Warmup: 10, Horizon: 110})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no links with measurable overflow")
	}
	for _, row := range res.Rows {
		if row.MeanRate <= 0 {
			t.Errorf("link %d: nonpositive overflow rate", row.Link)
		}
		if row.IDC <= 0 {
			t.Errorf("link %d: nonpositive IDC %v", row.Link, row.IDC)
		}
		if row.ClassicalZ < 1 {
			t.Errorf("link %d: classical z %v < 1", row.Link, row.ClassicalZ)
		}
	}
	// Finding this study documents: the admitted overflow stream is clearly
	// peaked (IDC well above the Poisson value of 1) — assumption A1 is a
	// modelling idealization, not an empirical fact — while staying within
	// the same order as the classical Wilkinson peakedness.
	if res.MeanIDC <= 1.2 {
		t.Errorf("mean IDC %v: expected clearly peaked overflow", res.MeanIDC)
	}
	if res.MeanIDC > 10 {
		t.Errorf("mean IDC %v implausibly large", res.MeanIDC)
	}
	if !strings.Contains(res.String(), "Assumption-A1") {
		t.Error("render malformed")
	}
}

func TestGeneralMesh(t *testing.T) {
	cases, err := GeneralMesh(5, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 5 {
		t.Fatalf("cases = %d", len(cases))
	}
	for _, c := range cases {
		if !c.GuaranteeHolds {
			t.Errorf("seed %d: guarantee violated (single %v vs controlled %v)",
				c.Seed, c.Single, c.Controlled)
		}
		if c.Single <= 0 {
			t.Errorf("seed %d: workload too light to exercise blocking", c.Seed)
		}
	}
	if !strings.Contains(RenderGeneralMesh(cases), "guarantee held") {
		t.Error("render malformed")
	}
}

func TestRetrials(t *testing.T) {
	pts, err := Retrials([]float64{0, 0.8}, 11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	base, hot := pts[0], pts[1]
	if hot.RetryLoad <= 0 {
		t.Error("no retry volume at p=0.8")
	}
	if base.RetryLoad != 0 {
		t.Errorf("retry load %v at p=0", base.RetryLoad)
	}
	// Retries rescue some calls overall...
	if hot.Controlled.Mean >= base.Controlled.Mean {
		t.Errorf("retrials should reduce definitive blocking: %v vs %v",
			hot.Controlled.Mean, base.Controlled.Mean)
	}
	// ...and the controlled >= single-path dominance survives the A2
	// violation (within statistical slack).
	if hot.Controlled.Mean > hot.Single.Mean+0.006 {
		t.Errorf("under retrials controlled %v exceeds single-path %v",
			hot.Controlled.Mean, hot.Single.Mean)
	}
	if !strings.Contains(RenderRetrials(pts), "retrials") {
		t.Error("render malformed")
	}
}

func TestInsensitivity(t *testing.T) {
	pts, err := Insensitivity(11, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Single-path blocking is near-insensitive: the spread across holding
	// CV² ∈ [0,4] stays within a small band.
	lo, hi := 1.0, 0.0
	for _, pt := range pts {
		if pt.Single.Mean < lo {
			lo = pt.Single.Mean
		}
		if pt.Single.Mean > hi {
			hi = pt.Single.Mean
		}
		// Guarantee holds under every distribution.
		if pt.Controlled.Mean > pt.Single.Mean+0.006 {
			t.Errorf("%v: controlled %v exceeds single %v", pt.Dist, pt.Controlled.Mean, pt.Single.Mean)
		}
	}
	if hi-lo > 0.015 {
		t.Errorf("single-path spread %v across holding distributions (insensitivity)", hi-lo)
	}
	if !strings.Contains(RenderInsensitivity(pts), "insensitivity") {
		t.Error("render malformed")
	}
}

func TestWriteReport(t *testing.T) {
	var b strings.Builder
	err := WriteReport(&b, ReportOptions{Sim: SimParams{Seeds: 1, Warmup: 5, Horizon: 20}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Controlled Alternate Routing",
		"## Table 1",
		"| 0→1 | 100 | 74 |",
		"Figures 3/4",
		"Figures 6/7",
		"| single-path |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "## Extensions") {
		t.Error("extensions included without the flag")
	}
}

func TestCapacityHeadroom(t *testing.T) {
	g := netmodel.Quadrangle()
	base := traffic.Uniform(4, 50)
	res, err := CapacityHeadroom(g, base, 0, 0.01, SimParams{Seeds: 2, Warmup: 5, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	single, ctrl := res[0], res[1]
	// At 1% blocking the quadrangle's single-path headroom is near 82/50 ≈
	// 1.64 (B(82,100) ≈ 1%); controlled alternate routing must be at least
	// as large.
	if single.Multiplier < 1.3 || single.Multiplier > 2.0 {
		t.Errorf("single-path multiplier %v implausible", single.Multiplier)
	}
	if ctrl.Multiplier < single.Multiplier-0.02 {
		t.Errorf("controlled headroom %v below single-path %v", ctrl.Multiplier, single.Multiplier)
	}
	if single.Blocking > 0.011 || ctrl.Blocking > 0.011 {
		t.Errorf("headroom blocking exceeds target: %v / %v", single.Blocking, ctrl.Blocking)
	}
	if _, err := CapacityHeadroom(g, base, 0, 0, SimParams{}); err == nil {
		t.Error("bad target: want error")
	}
	if !strings.Contains(RenderCapacity(0.01, res), "headroom") {
		t.Error("render malformed")
	}
}

func TestAvailabilitySweepShape(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 90)
	p := SimParams{Seeds: 2, Warmup: 2, Horizon: 20}
	av, err := AvailabilitySweep("quadrangle", g, m, []float64{0.01, 0.05}, 0, 0.5, sim.FailoverReroute, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []*Sweep{av.Blocking, av.Lost, av.Unserved} {
		if len(sw.Series) != 4 {
			t.Fatalf("%s: %d series, want 4 (3 static + adapted)", sw.Title, len(sw.Series))
		}
		for _, s := range sw.Series {
			if len(s.Points) != 2 {
				t.Fatalf("%s/%s: %d points, want 2", sw.Title, s.Name, len(s.Points))
			}
		}
	}
	if av.Blocking.SeriesByName("controlled-adapted") == nil {
		t.Fatal("missing adapted series")
	}
	// Unserved = blocking + lost must hold per point per policy (same runs).
	for i, s := range av.Unserved.Series {
		for j, pt := range s.Points {
			want := av.Blocking.Series[i].Points[j].Y + av.Lost.Series[i].Points[j].Y
			if diff := pt.Y - want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s[%d]: unserved %v != blocking+lost %v", s.Name, j, pt.Y, want)
			}
		}
	}
	// The lost fraction must respond to the outage rate for at least the
	// vulnerable single-path policy (common random numbers make this stable).
	sp := av.Lost.SeriesByName("single-path")
	if sp.Points[1].Y <= sp.Points[0].Y {
		t.Errorf("single-path lost fraction not increasing in outage rate: %v -> %v",
			sp.Points[0].Y, sp.Points[1].Y)
	}
	if s := av.String(); !strings.Contains(s, "outage rate") || !strings.Contains(s, "lost-to-failure") {
		t.Error("String() missing sweep titles")
	}
}
