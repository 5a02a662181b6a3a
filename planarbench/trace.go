package main

import (
	"fmt"
	"math"

	"github.com/planarcert/planarcert/internal/obs"
)

// spanJSON is one span as /debug/traces renders it.
type spanJSON struct {
	Name          string      `json:"name"`
	DurationNanos int64       `json:"duration_nanos"`
	Children      []*spanJSON `json:"children"`
}

// tracesPage is the body of GET /debug/traces.
type tracesPage struct {
	Enabled        bool   `json:"enabled"`
	DroppedSampled uint64 `json:"dropped_sampled"`
	DroppedEvicted uint64 `json:"dropped_evicted"`
	Traces         []struct {
		Session string    `json:"session"`
		Root    *spanJSON `json:"root"`
	} `json:"traces"`
}

// phasesOf decomposes one batch trace exactly as obs.Phases does on the
// live span tree: admission, queue and budget waits, prove, verify (a
// sweep minus its budget waits), persist, and the remainder as other,
// clamped at 0. It also returns the remainder before clamping, which is
// negative only when the phases overlap. Durations are in ms.
func phasesOf(root *spanJSON) (phases map[string]float64, remainder float64) {
	out := map[string]float64{}
	for _, p := range phaseNames {
		out[p] = 0
	}
	var walk func(s *spanJSON)
	walk = func(s *spanJSON) {
		for _, c := range s.Children {
			d := float64(c.DurationNanos) / 1e6
			switch c.Name {
			case obs.SpanAdmit:
				out[obs.PhaseAdmit] += d
			case obs.SpanQueueWait:
				out[obs.PhaseQueueWait] += d
			case obs.SpanProve:
				out[obs.PhaseProve] += d
			case obs.SpanPersist:
				out[obs.PhasePersist] += d
			case obs.SpanSweep:
				var bw float64
				for _, g := range c.Children {
					if g.Name == obs.SpanBudgetWait {
						bw += float64(g.DurationNanos) / 1e6
					}
				}
				out[obs.PhaseBudgetWait] += bw
				out[obs.PhaseVerify] += d - bw
			case obs.SpanBudgetWait:
				out[obs.PhaseBudgetWait] += d
			default:
				walk(c)
			}
		}
	}
	walk(root)
	var sum float64
	for _, v := range out {
		sum += v
	}
	remainder = float64(root.DurationNanos)/1e6 - sum
	out[obs.PhaseOther] = math.Max(0, remainder)
	return out, remainder
}

// phaseMeans averages the phase decomposition over every batch trace.
// execMs and overMs are the traced phase's acked batches as the client
// saw them: the ack's elapsed_seconds and the rest of the round trip.
// It checks that the trace ring holds exactly the batches acked, that
// no trace's phases overlap (so the phases add up to the batch time),
// and that the mean traced batch time lies between the mean ack elapsed
// time, which the server measures inside the batch span, and the mean
// client round trip, which encloses it.
func phaseMeans(page *tracesPage, execMs, overMs []float64) (means map[string]float64, batchMs float64, err error) {
	if !page.Enabled || page.DroppedSampled+page.DroppedEvicted > 0 {
		return nil, 0, fmt.Errorf("trace ring incomplete: enabled=%v dropped sampled=%d evicted=%d",
			page.Enabled, page.DroppedSampled, page.DroppedEvicted)
	}
	means = map[string]float64{}
	n := 0
	for _, tr := range page.Traces {
		if tr.Root == nil || tr.Root.Name != obs.SpanBatch {
			continue
		}
		n++
		batchMs += float64(tr.Root.DurationNanos) / 1e6
		phases, remainder := phasesOf(tr.Root)
		if remainder < 0 {
			return nil, 0, fmt.Errorf("%s: batch trace of %.4f ms has phases adding up to %.4f ms more",
				tr.Session, float64(tr.Root.DurationNanos)/1e6, -remainder)
		}
		for k, v := range phases {
			means[k] += v
		}
	}
	if n != len(execMs) {
		return nil, 0, fmt.Errorf("%d batch traces for %d acked batches", n, len(execMs))
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("no batch traces")
	}
	for k := range means {
		means[k] /= float64(n)
	}
	batchMs /= float64(n)
	exec := mean(execMs)
	roundTrip := exec + mean(overMs)
	if batchMs < exec || batchMs > roundTrip {
		return nil, 0, fmt.Errorf("traced batches average %.4f ms, outside [%.4f, %.4f] ms (ack elapsed, client round trip)",
			batchMs, exec, roundTrip)
	}
	return means, batchMs, nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
