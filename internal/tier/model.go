// Package tier implements tiered row storage for decay spaces: the layer
// that breaks the dense-float64 memory wall at n ≥ 16k. A tier.Space
// composes, per row,
//
//  1. an exact near-field tier — the top-K strongest neighbors (strongest =
//     smallest decay) stored as float64 and served bit-identically to the
//     source space,
//  2. a far-field tail — either full float32 rows (relative error ≤ 2⁻²⁴
//     per entry, Float32RelTol) or a fitted log-distance path-loss model
//     (decay(d) = C·dᵞ over the node geometry, the decay-domain form of
//     trace.PathLossFit) that stores O(1) per space,
//
// behind the ordinary core.Space / core.RowSpace / core.Symmetric
// contracts, so every existing kernel — ζ/ϕ tile scans, sampled
// estimators, affectance, sharded range scans, sim — runs unchanged. The
// third tier, out-of-core tile streaming for the exact triplet scans,
// lives in core.StreamScan (a streamed internal/shard.NewReplica) and
// pages rows of a tier.Space (or any RowSpace) through a bounded tile
// cache.
package tier

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// TailMode selects the far-field representation of a tiered space.
type TailMode int

const (
	// TailFloat32 stores full float32 decay rows: n²·4 bytes, relative
	// error ≤ Float32RelTol per entry (plus saturation clamping at the
	// float32 range ends, counted in Accounting.Saturated).
	TailFloat32 TailMode = iota
	// TailModel stores a fitted power-law path-loss model over the node
	// geometry: O(1) bytes for the tail, with the fit residual reported in
	// Accounting.TailError. Requires node positions.
	TailModel
)

// tailNames is the wire vocabulary of TailMode.
var tailNames = map[TailMode]string{
	TailFloat32: "float32",
	TailModel:   "model",
}

// String returns the wire name of the mode ("float32" or "model").
func (m TailMode) String() string {
	if s, ok := tailNames[m]; ok {
		return s
	}
	return fmt.Sprintf("TailMode(%d)", int(m))
}

// MarshalJSON encodes the mode as its wire name.
func (m TailMode) MarshalJSON() ([]byte, error) {
	s, ok := tailNames[m]
	if !ok {
		return nil, fmt.Errorf("tier: unknown tail mode %d", int(m))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a wire name, rejecting anything else.
func (m *TailMode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("tier: tail mode must be a string: %w", err)
	}
	for mode, name := range tailNames {
		if s == name {
			*m = mode
			return nil
		}
	}
	return fmt.Errorf("tier: unknown tail mode %q", s)
}

// Model is the far-field tail model in decay space: decay(d) = C·dᵞ for
// internode distance d. It is the decay-domain form of the log-distance
// path-loss fit trace imputation produces (trace.PathLossFit's
// rssi(d) = A − 10β·log₁₀ d becomes C = 10^((TX−A)/10), γ = β under the
// dBm→decay conversion f = 10^((TX−rssi)/10)); Build fits it directly from
// sampled (ln d, ln f) pairs by ordinary least squares. Eval clamps to a
// positive finite range so a tiered space always satisfies Def 2.1.
type Model struct {
	// C is the decay at unit distance (the exponentiated intercept of the
	// ln-ln fit). Must be positive and finite.
	C float64 `json:"c"`
	// Gamma is the path-loss exponent in decay space. Must be finite.
	Gamma float64 `json:"gamma"`
}

// Tail clamp range: Def 2.1 needs positive finite off-diagonal decays, so
// model evaluations saturate rather than under/overflow, and zero distances
// (co-located nodes) evaluate at a floor distance instead of d=0.
const (
	minTailDecay = 1e-300
	maxTailDecay = 1e300
	minTailDist  = 1e-12
)

// Eval returns the modeled decay at distance d, clamped positive finite.
func (m Model) Eval(d float64) float64 {
	if d < minTailDist {
		d = minTailDist
	}
	v := m.C * math.Pow(d, m.Gamma)
	if v < minTailDecay {
		return minTailDecay
	}
	if v > maxTailDecay || math.IsNaN(v) {
		return maxTailDecay
	}
	return v
}

// Valid reports whether the model parameters are in range.
func (m Model) Valid() error {
	if math.IsNaN(m.C) || math.IsInf(m.C, 0) || m.C <= 0 {
		return fmt.Errorf("tier: model coefficient must be positive finite, got %v", m.C)
	}
	if math.IsNaN(m.Gamma) || math.IsInf(m.Gamma, 0) {
		return fmt.Errorf("tier: model exponent must be finite, got %v", m.Gamma)
	}
	return nil
}

// Config is the serializable subset of Options: everything a tiered
// session needs besides the source space and geometry. The zero value is
// the default configuration (top-32 near field, float32 tail).
type Config struct {
	// K is the number of strongest (smallest-decay) neighbors stored
	// exactly per row. 0 means DefaultK; clamped to n−1.
	K int `json:"k,omitempty"`
	// Tail selects the far-field representation.
	Tail TailMode `json:"tail"`
	// TailSamples is the total number of (distance, decay) samples the
	// model fit and its error report draw, spread over rows.
	// 0 means DefaultTailSamples.
	TailSamples int `json:"tail_samples,omitempty"`
	// Seed drives the deterministic tail sampling. 0 means DefaultSeed — a
	// reserved substream, so explicit seeds (including 1) always draw their
	// own distinct sampling streams.
	Seed uint64 `json:"seed,omitempty"`
}

// DefaultSeed is the tail-sampling seed substituted for Config.Seed == 0.
// It is a reserved constant (the 64-bit golden-ratio mix word) rather than a
// small integer, so no explicit user seed silently collides with the
// default; Accounting.SampleAudit witnesses the distinction.
const DefaultSeed uint64 = 0x9e3779b97f4a7c15

// Wire-format bounds: a Config is untrusted input (it arrives in session
// requests), so the decoder rejects values outside these rather than
// letting a hostile config allocate unbounded near-field storage.
const (
	// DefaultK is the near-field width used when Config.K is zero.
	DefaultK = 32
	// MaxK caps the decodable near-field width.
	MaxK = 1 << 16
	// DefaultTailSamples is the fit/report sample budget when
	// Config.TailSamples is zero.
	DefaultTailSamples = 1 << 16
	// MaxTailSamples caps the decodable sample budget.
	MaxTailSamples = 1 << 24
)

// Valid reports whether the config is in range.
func (c Config) Valid() error {
	if c.K < 0 || c.K > MaxK {
		return fmt.Errorf("tier: k must be in [0, %d], got %d", MaxK, c.K)
	}
	if _, ok := tailNames[c.Tail]; !ok {
		return fmt.Errorf("tier: unknown tail mode %d", int(c.Tail))
	}
	if c.TailSamples < 0 || c.TailSamples > MaxTailSamples {
		return fmt.Errorf("tier: tail_samples must be in [0, %d], got %d", MaxTailSamples, c.TailSamples)
	}
	return nil
}

// ParseConfig decodes a Config from strict JSON: unknown fields, trailing
// data and out-of-range values are all rejected, and on any error the zero
// Config is returned (all-or-nothing). Encode∘ParseConfig is a fixed
// point: re-encoding a decoded config and decoding again yields an equal
// value.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := strictUnmarshal(data, &c); err != nil {
		return Config{}, err
	}
	if err := c.Valid(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Encode returns the canonical JSON form of the config.
func (c Config) Encode() []byte {
	out, err := json.Marshal(c)
	if err != nil {
		// Only TailMode can fail to marshal, and Valid'd configs cannot.
		panic(fmt.Sprintf("tier: encode config: %v", err))
	}
	return out
}

// ParseModel decodes a tail Model from strict JSON with the same
// all-or-nothing contract as ParseConfig: on any error the zero Model is
// returned, and Encode∘ParseModel is a fixed point.
func ParseModel(data []byte) (Model, error) {
	var m Model
	if err := strictUnmarshal(data, &m); err != nil {
		return Model{}, err
	}
	if err := m.Valid(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Encode returns the canonical JSON form of the model.
func (m Model) Encode() []byte {
	out, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("tier: encode model: %v", err))
	}
	return out
}

// strictUnmarshal unmarshals exactly one JSON value into dst — unknown
// fields, trailing bytes (valid JSON or garbage) and malformed input are
// all errors. The all-or-nothing contract of ParseConfig and ParseModel
// rests on callers discarding dst when this returns non-nil.
func strictUnmarshal(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return errors.New("tier: trailing data after JSON value")
	}
	return nil
}
