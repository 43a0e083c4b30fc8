package graph

import (
	"math"
	"sort"
)

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min     int
	Max     int
	Mean    float64
	Median  float64
	StdDev  float64
	Zero    int // number of nodes with degree 0
	Gamma   float64
	GammaOK bool // Gamma is meaningful only when the CCDF spans enough scales
}

// OutDegreeStats returns statistics for the out-degree distribution.
func (g *Graph) OutDegreeStats() DegreeStats { return degreeStats(g.n, g.OutDegree) }

// InDegreeStats returns statistics for the in-degree distribution.
func (g *Graph) InDegreeStats() DegreeStats { return degreeStats(g.n, g.InDegree) }

func degreeStats(n int, deg func(int) int) DegreeStats {
	if n == 0 {
		return DegreeStats{}
	}
	ds := make([]int, n)
	var sum float64
	s := DegreeStats{Min: math.MaxInt}
	for v := 0; v < n; v++ {
		d := deg(v)
		ds[v] = d
		sum += float64(d)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		if d == 0 {
			s.Zero++
		}
	}
	s.Mean = sum / float64(n)
	var sq float64
	for _, d := range ds {
		diff := float64(d) - s.Mean
		sq += diff * diff
	}
	s.StdDev = math.Sqrt(sq / float64(n))
	sort.Ints(ds)
	if n%2 == 1 {
		s.Median = float64(ds[n/2])
	} else {
		s.Median = (float64(ds[n/2-1]) + float64(ds[n/2])) / 2
	}
	s.Gamma, s.GammaOK = fitPowerLawExponent(ds)
	return s
}

// DegreeCCDF returns, for every degree value k that occurs, the fraction of
// nodes whose degree is at least k (the cumulative distribution Po(k)/Pi(k)
// plotted in Figure 1 of the paper). The result is sorted by ascending k.
func DegreeCCDF(n int, deg func(int) int) (ks []int, frac []float64) {
	if n == 0 {
		return nil, nil
	}
	counts := map[int]int{}
	for v := 0; v < n; v++ {
		counts[deg(v)]++
	}
	ks = make([]int, 0, len(counts))
	for k := range counts {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	frac = make([]float64, len(ks))
	// Fraction of nodes with degree >= k: suffix sums.
	suffix := 0
	tmp := make([]int, len(ks))
	for i := len(ks) - 1; i >= 0; i-- {
		suffix += counts[ks[i]]
		tmp[i] = suffix
	}
	for i := range ks {
		frac[i] = float64(tmp[i]) / float64(n)
	}
	return ks, frac
}

// OutDegreeCCDF returns the cumulative out-degree distribution Po(k).
func (g *Graph) OutDegreeCCDF() ([]int, []float64) { return DegreeCCDF(g.n, g.OutDegree) }

// OutPowerLawExponent estimates the cumulative power-law exponent gamma of the
// out-degree distribution, i.e. Po(k) ~ k^-gamma. The second return value is
// false when the degree range is too narrow for the fit to be meaningful.
func (g *Graph) OutPowerLawExponent() (float64, bool) {
	ds := make([]int, g.n)
	for v := range ds {
		ds[v] = g.OutDegree(v)
	}
	sort.Ints(ds)
	return fitPowerLawExponent(ds)
}

// fitPowerLawExponent estimates gamma such that P(degree >= k) ~ k^-gamma by a
// least-squares fit of log P(>=k) against log k over the tail k >= max(kmin,
// mean). degrees must be sorted ascending.
func fitPowerLawExponent(degrees []int) (float64, bool) {
	n := len(degrees)
	if n == 0 {
		return 0, false
	}
	var mean float64
	for _, d := range degrees {
		mean += float64(d)
	}
	mean /= float64(n)
	kmin := int(math.Max(2, mean))

	// Collect (log k, log P(>=k)) points for distinct k >= kmin.
	var xs, ys []float64
	i := 0
	for i < n {
		k := degrees[i]
		j := i
		for j < n && degrees[j] == k {
			j++
		}
		if k >= kmin {
			p := float64(n-i) / float64(n)
			xs = append(xs, math.Log(float64(k)))
			ys = append(ys, math.Log(p))
		}
		i = j
	}
	if len(xs) < 4 {
		return 0, false
	}
	slope, ok := leastSquaresSlope(xs, ys)
	if !ok {
		return 0, false
	}
	gamma := -slope
	if gamma <= 0 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return 0, false
	}
	return gamma, true
}

// leastSquaresSlope fits y = a + b*x and returns b.
func leastSquaresSlope(xs, ys []float64) (float64, bool) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}
