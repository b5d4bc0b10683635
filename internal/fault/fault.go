// Package fault is the deterministic failure-injection layer: a Plan is
// a declarative, JSON-able spec of media misbehavior — transient op
// errors with rate/burst modulation, permanent per-element death,
// per-block wear ceilings that retire-and-remap blocks in the FTL, and
// power-loss points that truncate a run and replay recovery — that any
// registered device can carry.
//
// Determinism is the design constraint everything else bends around: a
// plan plus the per-element operation sequence number fully determines
// every injection. Draws come from a counter-keyed hash over (plan
// seed, element, op-seq window), never from wall clock, shared RNG
// state, or iteration order, so a fault run is byte-identical at any
// worker count and fault specs stay cache-addressable
// in simsvc and dedupable in campaigns.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"ossd/internal/sim"
)

// ErrInjected is the transient error a plan injects into an operation;
// devices recover it with a retry, charging the plan's retry cost.
var ErrInjected = errors.New("fault: injected transient error")

// ErrElementDead is the permanent error returned by operations touching
// an element past its death point.
var ErrElementDead = errors.New("fault: element dead")

// Plan is one fault scenario. The zero value injects nothing; every
// field is optional so partial plans compose naturally with campaign
// axis substitution (e.g. an axis sweeping fault.transient.rate).
type Plan struct {
	// Seed keys the plan's hash; two plans differing only in Seed
	// inject at different op sequence numbers.
	Seed int64 `json:"seed"`
	// Transient injects recoverable per-op errors.
	Transient *Transient `json:"transient,omitempty"`
	// Deaths kill elements permanently after a per-element op count.
	Deaths []Death `json:"deaths,omitempty"`
	// WearCeiling retires a flash block (instead of erasing it) once
	// its erase count reaches this value; 0 disables retirement. Lower
	// ceilings accelerate lifetime: the spare pool shrinks as blocks
	// retire until the device hits its wear-out cliff.
	WearCeiling int `json:"wear_ceiling,omitempty"`
	// RemapCostUs is the per-relocated-page latency charged when a
	// retirement pass rebuilds the remap table (default 200us).
	RemapCostUs int64 `json:"remap_cost_us,omitempty"`
	// PowerLoss truncates the run at an op count and replays recovery.
	PowerLoss *PowerLoss `json:"power_loss,omitempty"`
}

// Transient is the recoverable-error component: each operation on an
// element faults with probability Rate, drawn per burst window so
// faults cluster in runs of Burst consecutive ops.
type Transient struct {
	// Rate is the per-op fault probability in [0, 1).
	Rate float64 `json:"rate"`
	// Burst groups consecutive ops into windows that fault together
	// (default 1: independent per-op draws).
	Burst int `json:"burst,omitempty"`
	// RetryUs is the recovery latency charged per injected fault
	// (default 500us).
	RetryUs int64 `json:"retry_us,omitempty"`
	// Kinds selects which op kinds fault: "r", "w", or "rw" (default).
	Kinds string `json:"kinds,omitempty"`
}

// Death kills one element permanently: every operation touching
// Element from its AfterOps-th op onward fails with ErrElementDead.
type Death struct {
	Element  int   `json:"element"`
	AfterOps int64 `json:"after_ops"`
}

// PowerLoss cuts power after AtOps host operations: the workload is
// truncated there and a recovery scan over ReplayFrac of the logical
// space (default 0.25) replays before metrics are read.
type PowerLoss struct {
	AtOps      int64   `json:"at_ops"`
	ReplayFrac float64 `json:"replay_frac,omitempty"`
}

// Validate checks the plan's ranges.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if t := p.Transient; t != nil {
		if t.Rate < 0 || t.Rate >= 1 {
			return fmt.Errorf("fault: transient rate %g outside [0, 1)", t.Rate)
		}
		if t.Burst < 0 {
			return fmt.Errorf("fault: transient burst %d must be >= 0", t.Burst)
		}
		if t.RetryUs < 0 {
			return fmt.Errorf("fault: transient retry_us %d must be >= 0", t.RetryUs)
		}
		switch t.Kinds {
		case "", "r", "w", "rw":
		default:
			return fmt.Errorf("fault: transient kinds %q (want r, w, or rw)", t.Kinds)
		}
	}
	for i, d := range p.Deaths {
		if d.Element < 0 {
			return fmt.Errorf("fault: death %d element %d must be >= 0", i, d.Element)
		}
		if d.AfterOps < 0 {
			return fmt.Errorf("fault: death %d after_ops %d must be >= 0", i, d.AfterOps)
		}
	}
	if p.WearCeiling < 0 {
		return fmt.Errorf("fault: wear_ceiling %d must be >= 0", p.WearCeiling)
	}
	if p.RemapCostUs < 0 {
		return fmt.Errorf("fault: remap_cost_us %d must be >= 0", p.RemapCostUs)
	}
	if pl := p.PowerLoss; pl != nil {
		if pl.AtOps <= 0 {
			return fmt.Errorf("fault: power_loss at_ops %d must be > 0", pl.AtOps)
		}
		if pl.ReplayFrac < 0 || pl.ReplayFrac > 1 {
			return fmt.Errorf("fault: power_loss replay_frac %g outside [0, 1]", pl.ReplayFrac)
		}
	}
	return nil
}

// Injects reports whether the plan injects per-op faults (transient
// errors or element deaths) — the part the generic device wrapper
// handles. Wear ceilings and power loss act elsewhere (FTL, runner).
func (p *Plan) Injects() bool {
	if p == nil {
		return false
	}
	return (p.Transient != nil && p.Transient.Rate > 0) || len(p.Deaths) > 0
}

// PowerLossPoint returns the plan's power-loss spec, nil-safely: nil
// when no plan is attached or the plan has no power-loss component.
func (p *Plan) PowerLossPoint() *PowerLoss {
	if p == nil {
		return nil
	}
	return p.PowerLoss
}

// draw hashes (seed, element, window) to a uniform float64 in [0, 1).
// splitmix64 finalization: a keyed counter mix, so draws are
// independent of evaluation order — the whole determinism story.
func (p *Plan) draw(elem int, window int64) float64 {
	z := uint64(p.Seed)*0x9E3779B97F4A7C15 ^
		(uint64(elem)+1)*0xBF58476D1CE4E5B9 ^
		(uint64(window)+1)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// TransientAt reports whether elem's seq-th operation draws a transient
// fault. Ops group into windows of Burst; one draw decides the whole
// window, so faults arrive in bursts while the long-run per-op rate
// stays Rate.
func (p *Plan) TransientAt(elem int, seq int64, write bool) bool {
	t := p.Transient
	if t == nil || t.Rate <= 0 {
		return false
	}
	switch t.Kinds {
	case "r":
		if write {
			return false
		}
	case "w":
		if !write {
			return false
		}
	}
	burst := int64(t.Burst)
	if burst < 1 {
		burst = 1
	}
	return p.draw(elem, seq/burst) < t.Rate
}

// DeadAt reports whether elem is dead at its seq-th operation.
func (p *Plan) DeadAt(elem int, seq int64) bool {
	for _, d := range p.Deaths {
		if d.Element == elem && seq >= d.AfterOps {
			return true
		}
	}
	return false
}

// RetryCost is the recovery latency charged per transient fault.
func (p *Plan) RetryCost() sim.Time {
	if p.Transient != nil && p.Transient.RetryUs > 0 {
		return sim.Time(p.Transient.RetryUs) * sim.Microsecond
	}
	return 500 * sim.Microsecond
}

// RemapCost is the per-relocated-page latency of a retirement pass.
func (p *Plan) RemapCost() sim.Time {
	if p.RemapCostUs > 0 {
		return sim.Time(p.RemapCostUs) * sim.Microsecond
	}
	return 200 * sim.Microsecond
}

// Parse decodes a plan from JSON, rejecting unknown fields, and
// validates it.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}
