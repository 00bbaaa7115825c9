package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// RateProfile modulates offered load over time: the instantaneous arrival
// rate of every O-D pair is its matrix rate times Profile(t). Profiles model
// the diurnal ramps and focused overloads under which the paper argues state
// protection stays robust (§1, citing Key; §5 "less sensitivity ... to
// traffic estimates").
type RateProfile func(t float64) float64

// ConstantProfile is the stationary case, Profile ≡ 1.
func ConstantProfile(float64) float64 { return 1 }

// RampProfile rises linearly from lo at t=0 to hi at horizon.
func RampProfile(lo, hi, horizon float64) RateProfile {
	return func(t float64) float64 {
		if horizon <= 0 {
			return lo
		}
		frac := t / horizon
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
}

// SineProfile oscillates around 1 with the given amplitude and period
// (a crude diurnal cycle).
func SineProfile(amplitude, period float64) RateProfile {
	return func(t float64) float64 {
		v := 1 + amplitude*math.Sin(2*math.Pi*t/period)
		if v < 0 {
			return 0
		}
		return v
	}
}

// GenerateTraceVarying draws a nonhomogeneous Poisson trace: each pair's
// arrivals follow rate T(i,j)·profile(t), generated by thinning against the
// profile's maximum over [0, horizon). Holding times stay exp(1). Identical
// (matrix, profile, seed) inputs reproduce the same trace.
func GenerateTraceVarying(m *traffic.Matrix, profile RateProfile, horizon float64, seed int64) (*Trace, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	if profile == nil {
		profile = ConstantProfile
	}
	// Bound the profile by sampling; thinning needs an upper envelope.
	peak := 0.0
	const samples = 4096
	for i := 0; i <= samples; i++ {
		v := profile(horizon * float64(i) / samples)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("sim: profile value %v at t=%v", v, horizon*float64(i)/samples)
		}
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return &Trace{Horizon: horizon, Seed: seed}, nil
	}
	peak *= 1.0001 // guard against maxima between samples

	n := m.Size()
	var calls []Call
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			r := xrand.New(seed, int64(i), int64(j), 7919)
			t := 0.0
			for {
				t += xrand.Exp(r, 1/(rate*peak))
				if t >= horizon {
					break
				}
				// Thinning: accept with probability profile(t)/peak. The
				// uniform draw is consumed unconditionally so acceptance
				// never desynchronizes the holding-time stream.
				u := r.Float64()
				hold := xrand.Exp(r, 1)
				if u*peak > profile(t) {
					continue
				}
				calls = append(calls, Call{
					Origin:  graph.NodeID(i),
					Dest:    graph.NodeID(j),
					Arrival: t,
					Holding: hold,
				})
			}
		}
	}
	sort.Slice(calls, func(a, b int) bool {
		if calls[a].Arrival != calls[b].Arrival {
			return calls[a].Arrival < calls[b].Arrival
		}
		if calls[a].Origin != calls[b].Origin {
			return calls[a].Origin < calls[b].Origin
		}
		return calls[a].Dest < calls[b].Dest
	})
	for i := range calls {
		calls[i].ID = i
	}
	return &Trace{Calls: calls, Horizon: horizon, Seed: seed}, nil
}
