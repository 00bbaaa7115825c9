package erlang

// Classical overflow-traffic theory (Riordan's overflow moments). The
// paper's Theorem 1 allows the alternate-routed (overflow) stream to be an
// arbitrary state-dependent Poisson process (assumption A1); classical
// teletraffic instead characterizes overflow from a circuit group as
// *peaked* (variance above Poisson). These tools quantify that peakedness
// so experiments can measure how far the controlled scheme's overflow
// departs from A1.

// OverflowMoments returns the mean and variance of the number of busy
// servers the overflow from an M/M/C/C group of the given offered load would
// occupy on an infinite secondary group (Riordan):
//
//	mean     α = λ·B(λ, C)
//	variance v = α·(1 − α + λ/(C + 1 + α − λ))
//
// The peakedness z = v/α exceeds 1 for every finite C (overflow is burstier
// than Poisson).
func OverflowMoments(load float64, capacity int) (mean, variance float64) {
	if load <= 0 {
		return 0, 0
	}
	alpha := load * B(load, capacity)
	v := alpha * (1 - alpha + load/(float64(capacity)+1+alpha-load))
	return alpha, v
}

// Peakedness returns variance/mean of the overflow (1 for Poisson); it
// returns 1 for zero offered load.
func Peakedness(load float64, capacity int) float64 {
	m, v := OverflowMoments(load, capacity)
	if m == 0 {
		return 1
	}
	return v / m
}
