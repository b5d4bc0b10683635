// Package campaign makes parameter sweeps a first-class object of the
// simulation service. The paper's core results are all grids — every
// device model crossed with every workload and scheduler — and the
// production workload of a deterministic what-if engine is the same
// shape: "every Table-2 device × every workload × 10 seeds × 5 queue
// depths". A Spec is a simsvc.JobSpec template plus named axes; it
// expands into a canonically ordered cartesian product of cells, each
// cell one job submitted through the existing manager. Because jobs are
// deduplicated by the content-addressed result cache, re-running a
// campaign after one axis changes only simulates the new cells, and
// cells that differ only in fields outside the cache identity
// (options.shards, which is accepted and ignored) collapse to one
// simulation.
//
// Three parts compose the package:
//
//   - expansion (this file): axes applied to the template's JSON by
//     dotted path, validated per cell before anything is enqueued;
//   - a campaign manager (manager.go): a feeder submits cells in order
//     through simsvc.Manager under a bounded in-flight window, tracks
//     per-cell outcomes, aggregates progress/ETA, streams results in
//     deterministic cell order, and cancels the remainder on demand;
//   - rendering (table.go): any two axes and a result metric become a
//     comparison table through the shared stats.Grid renderer.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ossd/internal/simsvc"
)

// Axis is one swept parameter: a dotted path into the JobSpec JSON
// ("params.seed", "options.shards", "profile", …) and the values it
// takes. Exactly one of Values and Range must be set; Range is the
// integer convenience for seed-style sweeps.
type Axis struct {
	Name   string            `json:"name"`
	Values []json.RawMessage `json:"values,omitempty"`
	Range  *Range            `json:"range,omitempty"`
}

// Range enumerates From..To inclusive, stepping by Step (default 1).
type Range struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
	Step int64 `json:"step,omitempty"`
}

// values materializes the range as JSON values.
func (r *Range) values() ([]json.RawMessage, error) {
	step := r.Step
	if step == 0 {
		step = 1
	}
	if step < 0 {
		return nil, fmt.Errorf("campaign: range step %d must be positive", step)
	}
	if r.To < r.From {
		return nil, fmt.Errorf("campaign: empty range [%d, %d]", r.From, r.To)
	}
	var vals []json.RawMessage
	for v := r.From; v <= r.To; v += step {
		vals = append(vals, json.RawMessage(fmt.Sprintf("%d", v)))
	}
	return vals, nil
}

// Spec is a campaign request: a job template plus the axes to sweep.
// Zero axes is legal (a one-cell campaign). MaxCells, when set, lowers
// the manager's expansion guard for this campaign.
type Spec struct {
	Template simsvc.JobSpec `json:"template"`
	Axes     []Axis         `json:"axes,omitempty"`
	MaxCells int            `json:"max_cells,omitempty"`
}

// AxisValue is one coordinate of a cell: the axis name and the label of
// the value the cell took on it. Coordinates are an ordered slice (not
// a map) so every serialization lists axes in spec order.
type AxisValue struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Cell is one expanded grid point: the fully substituted job spec and
// its coordinates. Key is the spec's cache identity; DupOf is the index
// of the earliest cell with the same Key (-1 if this cell is first) —
// duplicate cells are guaranteed cache hits once their primary has run,
// which is how an options.shards axis dedups to one simulation.
type Cell struct {
	Index  int
	Spec   simsvc.JobSpec
	Coords []AxisValue
	Key    uint64
	DupOf  int
}

// label renders an axis value for coordinates and table headers:
// strings drop their quotes, everything else is the compact JSON.
func label(raw json.RawMessage) string {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// setPath sets a dotted path in a JSON tree, creating intermediate
// objects as needed (the template's omitempty fields may be absent).
// Numeric segments index into arrays the template already carries —
// "tenants.0.weight" sweeps the first tenant's fair-share weight — but
// arrays are never created implicitly and never grown: the template
// must list the elements the axis addresses. Wrong field names are not
// detectable here — the final decode into JobSpec with
// DisallowUnknownFields catches them.
func setPath(m map[string]any, path string, v any) error {
	segs := strings.Split(path, ".")
	var cur any = m
	for i, seg := range segs {
		if seg == "" {
			return fmt.Errorf("campaign: axis %q has an empty path segment", path)
		}
		last := i == len(segs)-1
		switch node := cur.(type) {
		case map[string]any:
			if last {
				node[seg] = v
				return nil
			}
			next, ok := node[seg]
			if !ok {
				child := map[string]any{}
				node[seg] = child
				cur = child
				continue
			}
			cur = next
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil {
				return fmt.Errorf("campaign: axis %q: %q indexes an array but is not an integer", path, seg)
			}
			if idx < 0 || idx >= len(node) {
				return fmt.Errorf("campaign: axis %q: index %d outside the template's %d-element array", path, idx, len(node))
			}
			if last {
				node[idx] = v
				return nil
			}
			cur = node[idx]
		default:
			return fmt.Errorf("campaign: axis %q: %q is not an object or array", path, seg)
		}
	}
	return nil
}

// decodeNumeric unmarshals JSON preserving number literals verbatim
// (json.Number round-trips), so axis values and template numbers
// survive the map detour byte-for-byte.
func decodeNumeric(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(into)
}

// Expand materializes the spec's cartesian product in canonical order:
// axes iterate in spec order with the last axis varying fastest, like
// nested loops — cell index is the row-major rank of its coordinate
// vector. maxCells guards the expansion (spec.MaxCells lowers it when
// set); every cell's spec is validated before any cell is returned, so
// a bad axis value rejects the whole campaign.
func Expand(spec Spec, maxCells int) ([]*Cell, error) {
	if spec.MaxCells > 0 && spec.MaxCells < maxCells {
		maxCells = spec.MaxCells
	}
	axes := make([][]json.RawMessage, len(spec.Axes))
	seen := map[string]bool{}
	total := 1
	for i, ax := range spec.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("campaign: axis %d has no name", i)
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("campaign: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		switch {
		case len(ax.Values) > 0 && ax.Range != nil:
			return nil, fmt.Errorf("campaign: axis %q sets both values and range", ax.Name)
		case len(ax.Values) > 0:
			axes[i] = ax.Values
		case ax.Range != nil:
			vals, err := ax.Range.values()
			if err != nil {
				return nil, err
			}
			axes[i] = vals
		default:
			return nil, fmt.Errorf("campaign: axis %q has no values", ax.Name)
		}
		total *= len(axes[i])
		if total > maxCells {
			return nil, fmt.Errorf("campaign: expansion exceeds %d cells", maxCells)
		}
	}

	template, err := json.Marshal(spec.Template)
	if err != nil {
		return nil, fmt.Errorf("campaign: marshal template: %w", err)
	}

	cells := make([]*Cell, 0, total)
	primary := map[uint64]int{}
	idx := make([]int, len(spec.Axes))
	for n := 0; n < total; n++ {
		var tree map[string]any
		if err := decodeNumeric(template, &tree); err != nil {
			return nil, fmt.Errorf("campaign: decode template: %w", err)
		}
		cell := &Cell{Index: n, DupOf: -1, Coords: make([]AxisValue, len(spec.Axes))}
		for a, ax := range spec.Axes {
			raw := axes[a][idx[a]]
			var v any
			if err := decodeNumeric(raw, &v); err != nil {
				return nil, fmt.Errorf("campaign: axis %q value %s: %w", ax.Name, raw, err)
			}
			if err := setPath(tree, ax.Name, v); err != nil {
				return nil, err
			}
			cell.Coords[a] = AxisValue{Name: ax.Name, Value: label(raw)}
		}
		substituted, err := json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("campaign: marshal cell %d: %w", n, err)
		}
		dec := json.NewDecoder(bytes.NewReader(substituted))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cell.Spec); err != nil {
			return nil, fmt.Errorf("campaign: cell %d (%s): %w", n, coordString(cell.Coords), err)
		}
		if err := cell.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: cell %d (%s): %w", n, coordString(cell.Coords), err)
		}
		cell.Key = cell.Spec.Key()
		if p, ok := primary[cell.Key]; ok {
			cell.DupOf = p
		} else {
			primary[cell.Key] = n
		}
		cells = append(cells, cell)

		// Advance the coordinate vector: last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(axes[a]) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}

// coordString renders coordinates as "a=1 b=ssd" for error messages.
func coordString(coords []AxisValue) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = c.Name + "=" + c.Value
	}
	return strings.Join(parts, " ")
}
