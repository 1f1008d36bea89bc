package main

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// quantile returns the q-quantile of samples (linear interpolation
// between order statistics).  Any percentile above the median is refused
// (ok = false) unless at least minBeyond samples lie beyond it.
func quantile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	// 1-q is not exact in binary (100 × (1−0.9) reads 9.999…), hence the
	// epsilon before truncating.
	if q > 0.5 && int(float64(n)*(1-q)+1e-9) < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1], true
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), true
}

// median is quantile(samples, 0.5); 0 for no samples.
func median(samples []float64) float64 {
	v, _ := quantile(samples, 0.5)
	return v
}

// tail is quantile for a tail percentile, 0 when it is refused: a layer
// metric reading 0 means "too few samples for this percentile".
func tail(samples []float64, q float64) float64 {
	v, _ := quantile(samples, q)
	return v
}

// parseExposition reads a Prometheus text exposition and sums every
// series of a name over its label sets.  Histogram bucket series are
// dropped; their _sum and _count series are kept under those names.
func parseExposition(data []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// stampDiffMS returns b − a in milliseconds for two RFC 3339 timestamps
// of a status document; ok is false when either is absent or malformed.
func stampDiffMS(a, b string) (ms float64, ok bool) {
	ta, err1 := time.Parse(time.RFC3339Nano, a)
	tb, err2 := time.Parse(time.RFC3339Nano, b)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return tb.Sub(ta).Seconds() * 1000, true
}
