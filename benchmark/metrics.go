package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples, capped
// at the highest rank that leaves minBeyond samples beyond it, together
// with the quantile actually reported. ok is false when the sample is too
// small to report any percentile.
func percentile(sorted []time.Duration, q float64) (v time.Duration, got float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1-minBeyond))
	return sorted[idx], float64(idx+1) / float64(n), true
}

// median returns the middle of unsorted samples (sorting them in place).
func median(samples []time.Duration) (time.Duration, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	slices.Sort(samples)
	return samples[(len(samples)-1)/2], true
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyGroups are the latency metrics reported: every transaction type
// together, then new-order, payment, and the two read-only types.
var latencyGroups = []struct {
	prefix string
	types  []string
}{
	{"", txnTypes[:]},
	{"new_order_", []string{"new_order"}},
	{"payment_", []string{"payment"}},
	{"read_", []string{"order_status", "stock_level"}},
}

// trial is one measured window of an untraced run.
type trial struct {
	res    *loadResult
	cpu    time.Duration
	setups []time.Duration
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other tenants during the window.
	steal float64
}

// endToEnd computes the end-to-end metrics of an untraced run's trials.
// Throughput and CPU per transaction are medians of the trials' values;
// latency percentiles pool the trials' transactions. notes records each
// percentile's sample count and the quantile reported.
func endToEnd(trials []trial) ([]metric, []string, error) {
	var out []metric
	var notes []string
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	var tps, cpu []float64
	var setups []time.Duration
	var completed, attempted int64
	for _, t := range trials {
		if t.res.completed == 0 {
			return nil, nil, fmt.Errorf("no transaction completed in a measured window")
		}
		completed += t.res.completed
		attempted += t.res.attempted()
		tps = append(tps, float64(t.res.completed)/t.res.window.Seconds())
		cpu = append(cpu, float64(t.cpu)/float64(time.Millisecond)/float64(t.res.completed))
		setups = append(setups, t.setups...)
	}
	slices.Sort(setups)
	add("setup_s", "s", setups[len(setups)/2].Seconds())
	notes = append(notes, fmt.Sprintf("setup_s: median of %v", setups))
	add("throughput_tps", "txn/s", medianOf(tps))
	notes = append(notes, fmt.Sprintf("throughput_tps: median of %.1f", tps))
	for _, g := range latencyGroups {
		var lat []time.Duration
		for _, t := range trials {
			for _, typ := range g.types {
				lat = append(lat, t.res.lat[txnIndex(typ)]...)
			}
		}
		slices.Sort(lat)
		for _, q := range []float64{0.50, 0.99} {
			name := fmt.Sprintf("%sp%.0f_ms", g.prefix, q*100)
			v, got, ok := percentile(lat, q)
			if !ok {
				return nil, nil, fmt.Errorf("%s: only %d samples", name, len(lat))
			}
			add(name, "ms", toMS(v))
			note := fmt.Sprintf("%s: n=%d, beyond=%d", name, len(lat), len(lat)-int(math.Round(got*float64(len(lat)))))
			if got < q-1e-9 {
				note += fmt.Sprintf(", too few samples for p%g: reports p%.2f", q*100, got*100)
			}
			notes = append(notes, note)
		}
	}
	add("success_ratio", "ratio", float64(completed)/float64(attempted))
	add("cpu_ms_per_txn", "ms", medianOf(cpu))
	add("peak_rss_mb", "MiB", peakRSSMB())
	return out, notes, nil
}

// medianOf returns the median of vs, averaging the middle pair.
func medianOf(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
