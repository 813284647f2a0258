package main

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	// The same values Python's statistics.quantiles([1, 2, 3, 4], n=4,
	// method="inclusive") gives, plus both ends.
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", s, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedianIsExactAndLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(%v) = %g, want 3", xs, got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-length median = %g, want 2.5", got)
	}
}

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		top        float64
		n          int
		p          float64
		beyond     int
		ok         bool
		wantsValue float64
	}{
		{n: 1000, p: 99, beyond: 10, ok: true, wantsValue: 990.01},
		{n: 500, p: 95, beyond: 25, ok: true, wantsValue: 475.05},
		{n: 40, p: 75, beyond: 10, ok: true, wantsValue: 30.25},
		{n: 36, p: 50, beyond: 18, ok: true, wantsValue: 18.5},
		{n: 19, ok: false},
		{top: 75, n: 1000, p: 75, beyond: 250, ok: true, wantsValue: 750.25},
		{top: 75, n: 36, p: 50, beyond: 18, ok: true, wantsValue: 18.5},
	} {
		if c.top == 0 {
			c.top = 99
		}
		p, v, beyond, ok := tailPercentile(ramp(c.n), c.top)
		if ok != c.ok || (ok && (p != c.p || beyond != c.beyond || math.Abs(v-c.wantsValue) > 1e-9)) {
			t.Errorf("n=%d: got p%g = %g with %d beyond (ok %v), want p%g = %g with %d beyond (ok %v)",
				c.n, p, v, beyond, ok, c.p, c.wantsValue, c.beyond, c.ok)
		}
	}
	// Ties at the top leave nothing strictly beyond any percentile.
	same := make([]float64, 100)
	for i := range same {
		same[i] = 5
	}
	if _, _, _, ok := tailPercentile(same, 99); ok {
		t.Error("identical samples yielded a tail")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\te2ebench\nVmPeak:\t  900000 kB\nVmHWM:\t  150528 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 147 {
		t.Errorf("parseVmHWM = %g, %v; want 147 MiB", got, err)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed input", bad)
		}
	}
}

func TestPeakRSSOfThisProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc on this platform")
	}
	if got, err := peakRSSMiB(); err != nil || got <= 0 {
		t.Errorf("peakRSSMiB = %g, %v", got, err)
	}
}

func TestSpeedScalesIgnoreOneSlowKernelRun(t *testing.T) {
	d := func(msecs ...float64) []time.Duration {
		k := make([]time.Duration, len(msecs))
		for i, m := range msecs {
			k[i] = time.Duration(m * 1e6)
		}
		return k
	}
	for _, c := range []struct {
		k    []time.Duration
		want []float64
	}{
		{d(20, 20, 40, 20), []float64{1, 1, 1}},
		{d(10, 10, 10, 10), []float64{2, 2, 2}},
		{d(40, 40, 20, 20, 20), []float64{0.5, 1, 1, 1}},
		{d(10, 40), []float64{0.5}},
	} {
		got := speedScales(c.k)
		if len(got) != len(c.want) {
			t.Fatalf("speedScales(%v) = %v, want %v", c.k, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("speedScales(%v) = %v, want %v", c.k, got, c.want)
				break
			}
		}
	}
}
