package multirate

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/traffic"
)

func TestKaufmanRobertsReducesToErlangB(t *testing.T) {
	// A single unit-bandwidth class is M/M/C/C.
	for _, load := range []float64{1, 20, 74, 120} {
		for _, c := range []int{1, 10, 100} {
			bs, err := ClassBlocking([]ClassLoad{{Erlangs: load, Bandwidth: 1}}, c)
			if err != nil {
				t.Fatal(err)
			}
			want := erlang.B(load, c)
			if math.Abs(bs[0]-want) > 1e-10 {
				t.Errorf("KR(λ=%v,C=%d) = %v, Erlang-B %v", load, c, bs[0], want)
			}
		}
	}
}

// bruteForceBlocking computes multi-class blocking by explicit stationary
// solution of the two-class product-form distribution (complete sharing is
// reversible, so π(n1,n2) ∝ a1^n1/n1!·a2^n2/n2! truncated to b1·n1+b2·n2<=C).
func bruteForceBlocking(a1, a2 float64, b1, b2, c int) (float64, float64) {
	var z, blk1, blk2 float64
	fact := func(n int) float64 {
		f := 1.0
		for i := 2; i <= n; i++ {
			f *= float64(i)
		}
		return f
	}
	for n1 := 0; n1*b1 <= c; n1++ {
		for n2 := 0; n1*b1+n2*b2 <= c; n2++ {
			p := math.Pow(a1, float64(n1)) / fact(n1) * math.Pow(a2, float64(n2)) / fact(n2)
			z += p
			if n1*b1+n2*b2+b1 > c {
				blk1 += p
			}
			if n1*b1+n2*b2+b2 > c {
				blk2 += p
			}
		}
	}
	return blk1 / z, blk2 / z
}

func TestKaufmanRobertsMatchesProductForm(t *testing.T) {
	cases := []struct {
		a1, a2 float64
		b1, b2 int
		c      int
	}{
		{5, 1, 1, 4, 20},
		{10, 2, 1, 6, 30},
		{3, 3, 2, 3, 12},
		{40, 4, 1, 8, 60},
	}
	for _, tc := range cases {
		bs, err := ClassBlocking([]ClassLoad{
			{Erlangs: tc.a1, Bandwidth: tc.b1},
			{Erlangs: tc.a2, Bandwidth: tc.b2},
		}, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		w1, w2 := bruteForceBlocking(tc.a1, tc.a2, tc.b1, tc.b2, tc.c)
		if math.Abs(bs[0]-w1) > 1e-9 || math.Abs(bs[1]-w2) > 1e-9 {
			t.Errorf("%+v: KR (%v, %v), product form (%v, %v)", tc, bs[0], bs[1], w1, w2)
		}
	}
}

func TestOccupancyDistributionProperties(t *testing.T) {
	f := func(aSeed, bSeed uint8) bool {
		a := 1 + float64(aSeed%40)
		b := 1 + int(bSeed%5)
		q, err := OccupancyDistribution([]ClassLoad{
			{Erlangs: a, Bandwidth: 1},
			{Erlangs: a / 3, Bandwidth: b},
		}, 50)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range q {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKaufmanValidation(t *testing.T) {
	if _, err := OccupancyDistribution([]ClassLoad{{Erlangs: -1, Bandwidth: 1}}, 5); err == nil {
		t.Error("negative erlangs: want error")
	}
	if _, err := OccupancyDistribution([]ClassLoad{{Erlangs: 1, Bandwidth: 0}}, 5); err == nil {
		t.Error("zero bandwidth: want error")
	}
	if _, err := OccupancyDistribution(nil, -1); err == nil {
		t.Error("negative capacity: want error")
	}
	if _, err := ProtectionLevel(nil, 10, 0); err == nil {
		t.Error("bad maxHops: want error")
	}
}

func TestProtectionLevelSingleClassMatchesErlang(t *testing.T) {
	// With one unit-bandwidth class the multi-rate rule must coincide with
	// the single-rate Equation 15.
	for _, load := range []float64{16, 43, 74, 87, 103} {
		for _, h := range []int{2, 6, 11} {
			got, err := ProtectionLevel([]ClassLoad{{Erlangs: load, Bandwidth: 1}}, 100, h)
			if err != nil {
				t.Fatal(err)
			}
			want := erlang.ProtectionLevel(load, 100, h)
			if got != want {
				t.Errorf("Λ=%v H=%d: multirate r=%d, single-rate r=%d", load, h, got, want)
			}
		}
	}
}

func TestProtectionLevelWideClassesNeedMore(t *testing.T) {
	// Adding a wide class at equal bandwidth-weighted load should not reduce
	// the protection requirement.
	base, err := ProtectionLevel([]ClassLoad{{Erlangs: 60, Bandwidth: 1}}, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ProtectionLevel([]ClassLoad{
		{Erlangs: 30, Bandwidth: 1},
		{Erlangs: 5, Bandwidth: 6},
	}, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	if mixed < base {
		t.Errorf("mixed-class protection %d < single-class %d", mixed, base)
	}
	// Edge: zero offered load → no protection.
	if r, err := ProtectionLevel([]ClassLoad{{Erlangs: 0, Bandwidth: 1}}, 100, 6); err != nil || r != 0 {
		t.Errorf("zero load: r=%d err=%v", r, err)
	}
}

func quadSetup(t *testing.T, voice, video float64) (*graph.Graph, *policy.Table, []Class) {
	t.Helper()
	g := netmodel.Quadrangle()
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	classes := []Class{
		{Name: "voice", Bandwidth: 1, Demand: traffic.Uniform(4, voice)},
		{Name: "video", Bandwidth: 6, Demand: traffic.Uniform(4, video)},
	}
	return g, tbl, classes
}

func TestGenerateTraceMultiClass(t *testing.T) {
	_, _, classes := quadSetup(t, 10, 2)
	tr, err := GenerateTrace(classes, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i, c := range tr.Calls {
		if c.ID != i {
			t.Fatalf("ID mismatch at %d", i)
		}
		counts[c.Class]++
		if c.Class == 1 && c.Bandwidth != 6 {
			t.Fatalf("video bandwidth %d", c.Bandwidth)
		}
	}
	// 12 pairs × rate × horizon.
	if got := counts[0]; math.Abs(float64(got)-12000) > 500 {
		t.Errorf("voice arrivals %d, want ≈12000", got)
	}
	if got := counts[1]; math.Abs(float64(got)-2400) > 250 {
		t.Errorf("video arrivals %d, want ≈2400", got)
	}
	// Determinism.
	tr2, err := GenerateTrace(classes, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Calls) != len(tr.Calls) {
		t.Error("trace not deterministic")
	}
	if _, err := GenerateTrace(classes, 0, 1); err == nil {
		t.Error("bad horizon: want error")
	}
	if _, err := GenerateTrace([]Class{{Bandwidth: 0}}, 10, 1); err == nil {
		t.Error("bad class: want error")
	}
}

func TestRunDisciplinesMultiRate(t *testing.T) {
	g, tbl, classes := quadSetup(t, 55, 5) // bw-weighted ≈ 85 E/link
	prot, err := DeriveProtection(g, tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range prot {
		if r <= 0 || r > 60 {
			t.Fatalf("implausible protection %d", r)
		}
	}
	var accSingle, accCtrl, blkVideoSingle, blkVideoCtrl int64
	for seed := int64(0); seed < 4; seed++ {
		tr, err := GenerateTrace(classes, 110, seed)
		if err != nil {
			t.Fatal(err)
		}
		run := func(d Discipline, r []int) *Result {
			res, err := Run(Config{Graph: g, Table: tbl, Discipline: d, Protection: r, Trace: tr, Warmup: 10})
			if err != nil {
				t.Fatal(err)
			}
			if res.Offered != res.Accepted+res.Blocked {
				t.Fatal("conservation violated")
			}
			return res
		}
		rs := run(SinglePath, nil)
		rc := run(Controlled, prot)
		ru := run(Uncontrolled, nil)
		accSingle += rs.Accepted
		accCtrl += rc.Accepted
		blkVideoSingle += rs.ByClassBlocked[1]
		blkVideoCtrl += rc.ByClassBlocked[1]
		if ru.AlternateAccepted == 0 {
			t.Error("uncontrolled never used an alternate")
		}
	}
	// The scheme's guarantee, extended: controlled accepts at least as many
	// calls as single-path (statistical slack as in the single-rate tests).
	if accCtrl+accSingle/500 < accSingle {
		t.Errorf("controlled accepted %d < single-path %d", accCtrl, accSingle)
	}
	// Wide calls see strictly more blocking than narrow ones (they need 6
	// contiguous-in-capacity units); controlled routing must not invert that.
	if blkVideoSingle == 0 || blkVideoCtrl > blkVideoSingle+accSingle/500 {
		t.Errorf("video blocking: single %d, controlled %d", blkVideoSingle, blkVideoCtrl)
	}
}

func TestRunValidation(t *testing.T) {
	g, tbl, classes := quadSetup(t, 5, 1)
	tr, err := GenerateTrace(classes, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Table: tbl, Trace: tr}); err == nil {
		t.Error("nil graph: want error")
	}
	if _, err := Run(Config{Graph: g, Table: tbl, Discipline: Controlled, Trace: tr}); err == nil {
		t.Error("missing protection: want error")
	}
	if _, err := Run(Config{Graph: g, Table: tbl, Trace: tr, Warmup: 30}); err == nil {
		t.Error("warmup past horizon: want error")
	}
}

// TestRunRejectsUntrustedCalls replaces one call of a valid trace with a
// bad one: Run must return an error, never panic, carry the call or let it
// drive occupancy below zero.
func TestRunRejectsUntrustedCalls(t *testing.T) {
	g, tbl, classes := quadSetup(t, 5, 1)
	tr, err := GenerateTrace(classes, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := len(tr.Calls) / 2
	for _, c := range []struct {
		name string
		edit func(*Call)
	}{
		{"negative class", func(c *Call) { c.Class = -1 }},
		{"origin off the graph", func(c *Call) { c.Origin = -1 }},
		{"destination off the graph", func(c *Call) { c.Dest = 9 }},
		{"NaN arrival", func(c *Call) { c.Arrival = math.NaN() }},
		{"negative arrival", func(c *Call) { c.Arrival = -1 }},
		{"NaN holding", func(c *Call) { c.Holding = math.NaN() }},
		{"zero holding", func(c *Call) { c.Holding = 0 }},
		{"infinite holding", func(c *Call) { c.Holding = math.Inf(1) }},
		{"zero bandwidth", func(c *Call) { c.Bandwidth = 0 }},
		{"negative bandwidth", func(c *Call) { c.Bandwidth = -3 }},
	} {
		calls := append([]Call(nil), tr.Calls...)
		c.edit(&calls[k])
		bad := &Trace{Calls: calls, Horizon: tr.Horizon, Seed: tr.Seed}
		for _, d := range []Discipline{SinglePath, Uncontrolled} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s, %v: Run panicked: %v", c.name, d, r)
					}
				}()
				if res, err := Run(Config{Graph: g, Table: tbl, Discipline: d, Trace: bad}); err == nil {
					t.Errorf("%s, %v: Run accepted the call (offered bandwidth %d)", c.name, d, res.BandwidthOffered)
				}
			}()
		}
	}
	if _, err := Run(Config{Graph: g, Table: tbl, Trace: tr}); err != nil {
		t.Fatalf("valid trace: %v", err)
	}
}

func TestLinkClassLoadsEquation1(t *testing.T) {
	g, tbl, classes := quadSetup(t, 10, 2)
	loads, err := LinkClassLoads(g, tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	// Fully connected: each link carries exactly its own pair's demand.
	for id := range loads {
		if math.Abs(loads[id][0].Erlangs-10) > 1e-12 {
			t.Errorf("link %d voice load %v", id, loads[id][0].Erlangs)
		}
		if math.Abs(loads[id][1].Erlangs-2) > 1e-12 {
			t.Errorf("link %d video load %v", id, loads[id][1].Erlangs)
		}
		if loads[id][1].Bandwidth != 6 {
			t.Errorf("link %d video bandwidth %d", id, loads[id][1].Bandwidth)
		}
	}
	// Size mismatch.
	bad := []Class{{Name: "x", Bandwidth: 1, Demand: traffic.NewMatrix(5)}}
	if _, err := LinkClassLoads(g, tbl, bad); err == nil {
		t.Error("size mismatch: want error")
	}
}

func TestDisciplineString(t *testing.T) {
	if SinglePath.String() != "single-path" || Uncontrolled.String() != "uncontrolled-alternate" ||
		Controlled.String() != "controlled-alternate" {
		t.Error("bad names")
	}
	if Discipline(7).String() == "" {
		t.Error("unknown discipline should render")
	}
}
