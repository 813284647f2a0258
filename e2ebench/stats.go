package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. The tail is the highest rung, at or below the
// workload's top rung, with at least minBeyond samples strictly above
// it. A fixed ladder, rather than the exact 1-10/n quantile, keeps the
// chosen percentile the same across runs whose sample counts differ;
// the top rung keeps it the same when a slower host completes fewer
// operations in the window. p99.9 is left out because no workload
// completes the ten thousand operations it needs in one run.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of an ascending
// slice by linear interpolation between the two closest ranks, the
// definition numpy and Python's statistics module call "inclusive". The
// 50th percentile is the exact median.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile picks the highest ladder percentile, at most top, of
// an ascending slice that has at least minBeyond samples strictly above
// it. ok is false when even the lowest rung has too few.
func tailPercentile(sorted []float64, top float64) (p, value float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if p > top {
			continue
		}
		v := percentile(sorted, p)
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
		if b := len(sorted) - i; b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, 0, 0, false
}

// median returns the exact median of xs without reordering it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return percentile(s, 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// startPeakRSS returns freed heap to the OS and resets the process's
// peak resident set size (VmHWM) to its current RSS, so that
// peakRSSMiB covers only what runs after it: the measured window, not
// the set-up's transient builds, whose peak depends on where the
// garbage collector happened to run.
func startPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMiB reports the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the VmHWM line of a /proc/<pid>/status file and
// converts it from kB to MiB.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("peak rss: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line")
}
