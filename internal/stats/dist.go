package stats

import "math"

// Sampler produces random draws from a distribution of operation times.
// PEVPM's match phase calls Sample once per simulated message.
type Sampler interface {
	Sample(r Rand) float64
	// Mean returns the expected value of the distribution.
	Mean() float64
	// MinBound returns the lower bound of the support — the paper's
	// contention-free minimum time.
	MinBound() float64
}

// Dist extends Sampler with an analytic CDF, which goodness-of-fit tests
// (KS distance) require.
type Dist interface {
	Sampler
	CDF(x float64) float64
}

// Constant always returns the same value.
//
//detlint:allow unused -- pevpm's timing tests make every draw exact with it
type Constant float64

// Sample returns the constant.
func (c Constant) Sample(Rand) float64 { return float64(c) }

// Mean returns the constant.
func (c Constant) Mean() float64 { return float64(c) }

// MinBound returns the constant.
func (c Constant) MinBound() float64 { return float64(c) }

// CDF is a step at the constant.
func (c Constant) CDF(x float64) float64 {
	if x < float64(c) {
		return 0
	}
	return 1
}

// ShiftedLogNormal is Shift + LogNormal(Mu, Sigma): a bounded minimum
// with a smooth rise, a peak and a quickly decaying tail — the shape
// MPIBench observes for message-passing times under contention.
type ShiftedLogNormal struct {
	Shift, Mu, Sigma float64
}

// Sample draws from the distribution.
func (d ShiftedLogNormal) Sample(r Rand) float64 {
	return d.Shift + math.Exp(d.Mu+d.Sigma*r.NormFloat64())
}

// Mean returns Shift + exp(Mu + Sigma^2/2).
func (d ShiftedLogNormal) Mean() float64 {
	return d.Shift + math.Exp(d.Mu+d.Sigma*d.Sigma/2)
}

// MinBound returns the shift.
func (d ShiftedLogNormal) MinBound() float64 { return d.Shift }

// CDF of the shifted lognormal.
func (d ShiftedLogNormal) CDF(x float64) float64 {
	if x <= d.Shift {
		return 0
	}
	return 0.5 * (1 + math.Erf((math.Log(x-d.Shift)-d.Mu)/(d.Sigma*math.Sqrt2)))
}

// ShiftedExp is Shift + Exponential(mean Scale): the memoryless tail
// model, a reasonable fit for queueing-dominated delays.
type ShiftedExp struct {
	Shift, Scale float64
}

// Sample draws from the distribution.
func (d ShiftedExp) Sample(r Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return d.Shift - d.Scale*math.Log(u)
}

// Mean returns Shift + Scale.
func (d ShiftedExp) Mean() float64 { return d.Shift + d.Scale }

// MinBound returns the shift.
func (d ShiftedExp) MinBound() float64 { return d.Shift }

// CDF of the shifted exponential.
func (d ShiftedExp) CDF(x float64) float64 {
	if x <= d.Shift {
		return 0
	}
	return 1 - math.Exp(-(x-d.Shift)/d.Scale)
}

// Weibull is Shift + Weibull(Shape k, Scale λ). With k>1 it has the
// rise-peak-decay shape; with k=1 it degenerates to the exponential.
type Weibull struct {
	Shift, Shape, Scale float64
}

// Sample draws by inverting the CDF.
func (d Weibull) Sample(r Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return d.Shift + d.Scale*math.Pow(-math.Log(u), 1/d.Shape)
}

// Mean returns Shift + Scale·Γ(1 + 1/Shape).
func (d Weibull) Mean() float64 {
	return d.Shift + d.Scale*math.Gamma(1+1/d.Shape)
}

// MinBound returns the shift.
func (d Weibull) MinBound() float64 { return d.Shift }

// CDF of the shifted Weibull.
func (d Weibull) CDF(x float64) float64 {
	if x <= d.Shift {
		return 0
	}
	return 1 - math.Exp(-math.Pow((x-d.Shift)/d.Scale, d.Shape))
}
