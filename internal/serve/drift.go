package serve

import (
	"fmt"

	"github.com/ada-repro/ada/internal/monitor"
)

// DriftConfig tunes a tenant's drift detector.
type DriftConfig struct {
	// Trigger is the total-variation distance at which the detector's
	// signal goes high (default 0.15 — the distribution moved 15% of its
	// mass relative to what the last control round consumed). A value
	// above 1 can never be reached, which disables drift triggering
	// entirely: the pacer then falls back to pure staleness pacing, the
	// paper's fixed cadence.
	Trigger float64
	// Rearm is the distance below which a high signal drops back low
	// (default Trigger/2). The gap between Trigger and Rearm is the
	// Schmitt-trigger hysteresis band: a distance oscillating inside the
	// band never flips the signal, so boundary noise cannot flap rounds.
	Rearm float64
	// MinSamples is the observation mass a snapshot needs before the
	// detector will change its signal (default 32). Right after a round the
	// registers hold a handful of hits whose normalized histogram is all
	// noise; holding the previous level until the window has substance
	// keeps that noise out of the pacer.
	MinSamples uint64
}

func (c *DriftConfig) normalise() error {
	if c.Trigger == 0 {
		c.Trigger = 0.15
	}
	if c.Trigger < 0 {
		return fmt.Errorf("serve: negative drift trigger %v", c.Trigger)
	}
	if c.Rearm == 0 {
		c.Rearm = c.Trigger / 2
	}
	if c.Rearm < 0 || c.Rearm > c.Trigger {
		return fmt.Errorf("serve: drift rearm %v outside [0, trigger %v]", c.Rearm, c.Trigger)
	}
	if c.MinSamples == 0 {
		c.MinSamples = 32
	}
	return nil
}

// Detector turns one tenant's hit-register snapshots into a level-based
// drift signal. The baseline is the histogram the last committed control
// round consumed; Eval compares the current inter-round window against it
// with monitor.HitDistance (total variation over the normalized
// distributions, so absolute rate is factored out) and runs the distance
// through a Schmitt trigger. The signal is a level, not an edge: a round
// suppressed by spacing or budget arbitration still sees the signal high on
// the next tick and fires then, instead of losing the trigger.
//
// A Detector is owned by the pacer goroutine and is not safe for concurrent
// use.
type Detector struct {
	cfg  DriftConfig
	base []uint64
	has  bool
	high bool
	dist float64
}

// NewDetector builds a detector with cfg (zero fields take defaults).
func NewDetector(cfg DriftConfig) (*Detector, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Eval feeds the current hit-register snapshot and returns the drift
// distance plus the (possibly updated) signal level. Without a baseline —
// before the first round, or after Invalidate — the distance is reported as
// 1 and the signal goes high once the window has MinSamples, so a fresh or
// re-laid-out tenant asks for a round as soon as there is evidence to spend
// one on. A snapshot below MinSamples holds the previous level.
func (d *Detector) Eval(cur []uint64) (float64, bool) {
	var total uint64
	for _, v := range cur {
		total += v
	}
	if !d.has {
		d.dist = 1
	} else {
		d.dist = monitor.HitDistance(cur, d.base)
	}
	if total < d.cfg.MinSamples {
		return d.dist, d.high
	}
	switch {
	case d.dist >= d.cfg.Trigger:
		d.high = true
	case d.dist < d.cfg.Rearm:
		d.high = false
	}
	return d.dist, d.high
}

// High returns the current signal level without re-evaluating.
func (d *Detector) High() bool { return d.high }

// Distance returns the drift distance of the last Eval.
func (d *Detector) Distance() float64 { return d.dist }

// Rebase pins hist as the new baseline — call it with the snapshot a just
// committed round consumed — and drops the signal low (the round addressed
// the drift).
func (d *Detector) Rebase(hist []uint64) {
	d.base = append(d.base[:0], hist...)
	d.has = true
	d.high = false
}

// Invalidate discards the baseline — call it when the round changed the
// monitoring layout (expansion, rebalance), because the old histogram's
// bins no longer mean anything. The next adequately-sized snapshot reads as
// full drift, which is the honest answer for an incomparable baseline.
func (d *Detector) Invalidate() {
	d.base = d.base[:0]
	d.has = false
}
