package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"waitfree/internal/model"
)

// MaxSolveLevel bounds the subdivision level any query may request; SDS^b
// grows ~13^b per triangle, so this is a service-protection guard, not a
// theory statement.
const MaxSolveLevel = 4

// SolveRequest asks for a Proposition 3.1 verdict: does a color-preserving
// simplicial map R^b(I) → O respecting Δ exist for some b ≤ MaxLevel, where
// R is the subdivision of the requested model (SDS itself for wait-free)?
type SolveRequest struct {
	Spec     TaskSpec `json:"spec"`
	MaxLevel int      `json:"max_level"`
	MaxNodes int64    `json:"max_nodes,omitempty"` // 0 = engine default
	// Model is the affine model in canonical surface syntax ("wait-free",
	// "1-resilient", "2-concurrency", "2-set"); absent means wait-free, so
	// pre-model clients and artifacts keep their exact semantics.
	Model string `json:"model,omitempty"`
}

// Key returns the request's content address. Wait-free requests — Model
// absent or explicitly "wait-free" — produce byte-identical keys to the
// pre-model engine, so nothing already cached or spilled is invalidated.
// Non-wait-free models append their canonical form; a model string that
// does not parse appends a marked verbatim suffix, so it can never alias
// the wait-free key (Solve and EstimateCost reject it with ErrInvalid
// before any cache interaction, but the key itself must also be safe —
// defense against future callers keying first and validating second).
func (r SolveRequest) Key() string {
	key := fmt.Sprintf("solve:%s:maxb=%d:maxnodes=%d", r.Spec.Hash(), r.MaxLevel, r.MaxNodes)
	spec, err := model.Parse(r.Model)
	if err != nil {
		return key + ":model=!" + r.Model
	}
	if spec.IsWaitFree() {
		return key
	}
	return key + ":model=" + spec.Canonical()
}

// SolveResponse is the verdict. Every field is deterministic for a given
// request (node counts included — the backtracking search is sequential),
// so CLI -json output and service responses are byte-identical.
type SolveResponse struct {
	Task                string   `json:"task"`
	Spec                TaskSpec `json:"spec"`
	MaxLevel            int      `json:"max_level"`
	Level               int      `json:"level"`
	Solvable            bool     `json:"solvable"`
	Verdict             string   `json:"verdict"`
	Nodes               int64    `json:"nodes"`
	SubdivisionVertices int      `json:"subdivision_vertices"`
	SubdivisionFacets   int      `json:"subdivision_facets"`
	MapVerified         bool     `json:"map_verified"`
	// Model echoes the request's model canonically; omitted for wait-free,
	// keeping wait-free JSON (and gob decoding of pre-model artifacts)
	// byte-compatible.
	Model string `json:"model,omitempty"`
}

// ComplexRequest asks for the shape of SDS^b(sⁿ).
type ComplexRequest struct {
	N int `json:"n"`
	B int `json:"b"`
}

// Key returns the request's content address.
func (r ComplexRequest) Key() string { return fmt.Sprintf("cx:n=%d:b=%d", r.N, r.B) }

// ComplexResponse reports the subdivided simplex's combinatorics.
type ComplexResponse struct {
	N         int    `json:"n"`
	B         int    `json:"b"`
	Vertices  int    `json:"vertices"`
	Facets    int    `json:"facets"`
	FVector   []int  `json:"f_vector"`
	Euler     int    `json:"euler_characteristic"`
	Chromatic bool   `json:"chromatic"`
	Pure      bool   `json:"pure"`
	Hash      string `json:"hash"` // content address of the canonical encoding
}

// ConvergeRequest asks for a Theorem 5.1 map SDS^k(sⁿ) → SDS^target(sⁿ).
type ConvergeRequest struct {
	N      int `json:"n"`
	Target int `json:"target"`
	MaxK   int `json:"max_k"`
}

// Key returns the request's content address.
func (r ConvergeRequest) Key() string {
	return fmt.Sprintf("conv:n=%d:target=%d:maxk=%d", r.N, r.Target, r.MaxK)
}

// ConvergeResponse reports the level at which the map was found and its
// verified properties.
type ConvergeResponse struct {
	N                 int  `json:"n"`
	Target            int  `json:"target"`
	MaxK              int  `json:"max_k"`
	K                 int  `json:"k"`
	Simplicial        bool `json:"simplicial"`
	ColorPreserving   bool `json:"color_preserving"`
	CarrierRespecting bool `json:"carrier_respecting"`
	DomainVertices    int  `json:"domain_vertices"`
	TargetVertices    int  `json:"target_vertices"`
	// NoMap is a proof that no k ≤ MaxK has a map; K is then MaxK, the last
	// level searched. Omitted on found answers, which keep their bytes.
	NoMap bool `json:"no_map,omitempty"`
}

// AdversaryRequest replays a deterministic (adversary, seed, crash) triple
// from the PR 1 scheduler over a chosen concurrent runtime.
type AdversaryRequest struct {
	Algo      string `json:"algo"`
	Adversary string `json:"adversary"`
	Seed      int64  `json:"seed"`
	Procs     int    `json:"procs"`
	Crash     []int  `json:"crash,omitempty"` // per-process crash steps, -1 = never
	MaxSteps  int    `json:"max_steps,omitempty"`
}

// Key returns the request's content address (the replay is deterministic in
// these parameters, so caching verdicts is sound).
func (r AdversaryRequest) Key() string {
	return fmt.Sprintf("adv:algo=%s:adv=%s:seed=%d:procs=%d:crash=%s:maxsteps=%d",
		r.Algo, r.Adversary, r.Seed, r.Procs, FormatCrashVector(r.Crash), r.MaxSteps)
}

// AdversaryResponse reports the replayed execution.
type AdversaryResponse struct {
	Algo        string   `json:"algo"`
	Adversary   string   `json:"adversary"`
	Seed        int64    `json:"seed"`
	Procs       int      `json:"procs"`
	Crash       []int    `json:"crash,omitempty"`
	TotalSteps  int      `json:"total_steps"`
	StepCounts  []int    `json:"step_counts"`
	TraceLen    int      `json:"trace_len"`
	TracePrefix []int    `json:"trace_prefix"`
	Statuses    []string `json:"statuses"`
	Memories    string   `json:"memories"`
	WaitFree    bool     `json:"wait_free"`
	Budget      string   `json:"budget,omitempty"` // set when the step budget tripped
	Outcome     string   `json:"outcome,omitempty"`
}

// ParseCrashVector parses "2,-1,4" into a per-process crash-step vector of
// length n (-1 = never crash), rejecting vectors that crash every process.
func ParseCrashVector(s string, n int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	fields := strings.Split(s, ",")
	if len(fields) > n {
		return nil, fmt.Errorf("%w: crash vector has %d entries for %d processes", ErrInvalid, len(fields), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	live := 0
	for i, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("%w: bad crash entry %q: %v", ErrInvalid, f, err)
		}
		out[i] = v
		if v < 0 {
			live++
		}
	}
	live += n - len(fields)
	if live == 0 {
		return nil, fmt.Errorf("%w: crash vector %v crashes every process; wait-freedom is about proper subsets", ErrInvalid, out)
	}
	return out, nil
}

// FormatCrashVector renders a crash vector canonically ("" for nil/all-live).
func FormatCrashVector(crash []int) string {
	all := true
	for _, v := range crash {
		if v >= 0 {
			all = false
		}
	}
	if len(crash) == 0 || all {
		return ""
	}
	parts := make([]string, len(crash))
	for i, v := range crash {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// EncodeJSON is the one shared encoder: both `wfrepro <cmd> -json` and the
// /v1/* service endpoints emit exactly these bytes, so CLI output and
// service responses are byte-identical for the same query.
func EncodeJSON(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON encodes v with EncodeJSON onto w.
func WriteJSON(w io.Writer, v any) error {
	data, err := EncodeJSON(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
