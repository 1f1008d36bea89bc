// Package httpapi exposes the jobs manager as a JSON-over-HTTP service:
// the wire surface of the pmaxtd daemon.
//
//	POST   /v1/jobs             submit a dataset + options; 202 + job status
//	GET    /v1/jobs/{id}        job status with live permutation progress
//	GET    /v1/jobs/{id}/result adjusted p-values of a finished job
//	DELETE /v1/jobs/{id}        cancel (checkpoint retained for resume)
//	PUT    /v1/datasets         register a matrix; returns its content id
//	GET    /v1/datasets         list registered datasets
//	GET    /v1/datasets/{id}    one dataset's registry entry
//	DELETE /v1/datasets/{id}    evict a dataset (409 while jobs pin it)
//	GET    /v1/livez            liveness: 200 whenever the process serves
//	GET    /v1/readyz           readiness: 503 while recovering/draining
//	GET    /v1/stats            queue / cache / worker counters (JSON)
//	GET    /metrics             Prometheus text exposition of the same plane
//
// Every route runs under the observability middleware: an X-Request-Id is
// accepted or minted and echoed back, each request is logged structured
// (slog) with id, tenant, route, status and duration, and per-route
// request counts and latency histograms feed /metrics.  Submissions are
// attributed to the tenant named by the X-Tenant header (anonymous when
// absent); an admission refusal — rate limit, full queue, or predicted
// queue wait over the bound — answers 429 with a Retry-After header
// derived from the observed queue drain rate.
//
// The body formats are defined by the *JSON types in this file.  Matrix
// cells may be JSON null for missing values (NaN), and NaN/±Inf outputs
// serialise as null, since bare JSON has no tokens for them.  Datasets may
// be submitted row per gene ("x"), as one flat column-major buffer
// ("x_flat" + "genes" + "samples", R's native layout), or — the zero-copy
// path — by "dataset_id" against a matrix previously registered on
// /v1/datasets; all three forms hash to the same cache key.  Dataset
// uploads accept JSON (the same "x"/"x_flat" shapes) or the binary spb
// codec (Content-Type application/x-sprint-spb).  JSON request bodies are
// decoded with a streaming decoder (peak memory tracks the decoded matrix,
// not the body text), and any request body may be sent with
// Content-Encoding: gzip.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/metrics"
)

// Config configures a Server.
type Config struct {
	// Jobs sizes the underlying manager (workers, queue, cache,
	// checkpoint directory ...).
	Jobs jobs.Config
	// MaxBodyBytes bounds a submission body.  Defaults to 256 MiB, which
	// admits the paper's largest exon-array matrix (73224×76 ≈ 42.45 MB
	// binary) with JSON overhead to spare.
	MaxBodyBytes int64
	// Logger receives the structured request log.  Nil discards it (tests
	// and embedders that log elsewhere); pmaxtd passes its JSON logger.
	Logger *slog.Logger
}

// Server is the HTTP facade over a jobs.Manager.
type Server struct {
	mgr      *jobs.Manager
	mux      *http.ServeMux
	maxBody  int64
	reg      *metrics.Registry
	log      *slog.Logger
	routeMet map[string]*routeMetrics
	cluster  cluster.Node
}

// New starts the manager and builds the route table.  Call Close to stop.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.Jobs.Metrics == nil {
		cfg.Jobs.Metrics = metrics.New()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mgr, err := jobs.NewManager(cfg.Jobs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		mgr:      mgr,
		mux:      http.NewServeMux(),
		maxBody:  cfg.MaxBodyBytes,
		reg:      cfg.Jobs.Metrics,
		log:      cfg.Logger,
		routeMet: make(map[string]*routeMetrics),
	}
	s.reg.Help("http_requests_total", "HTTP requests served, by route and status class.")
	s.reg.Help("http_request_seconds", "HTTP request latency, by route.")
	handle := func(method, route string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+route, s.instrument(route, h))
	}
	handle("POST", "/v1/jobs", s.handleSubmit)
	handle("GET", "/v1/jobs/{id}", s.handleStatus)
	handle("GET", "/v1/jobs/{id}/result", s.handleResult)
	handle("DELETE", "/v1/jobs/{id}", s.handleCancel)
	handle("PUT", "/v1/datasets", s.handlePutDataset)
	handle("GET", "/v1/datasets", s.handleListDatasets)
	handle("GET", "/v1/datasets/{id}", s.handleDatasetInfo)
	handle("DELETE", "/v1/datasets/{id}", s.handleDeleteDataset)
	handle("GET", "/v1/livez", s.handleLivez)
	handle("GET", "/v1/readyz", s.handleReadyz)
	handle("GET", "/v1/stats", s.handleStats)
	handle("GET", "/metrics", s.handleMetrics)
	return s, nil
}

// Metrics returns the registry the server and its manager report into.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the route table, ready for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the underlying jobs manager (used by embedding callers
// and tests).
func (s *Server) Manager() *jobs.Manager { return s.mgr }

// Close drains and stops the job manager.  In-flight analyses stop at
// their next checkpoint window; their checkpoints survive for resume.
func (s *Server) Close() { s.mgr.Close() }

// Matrix is a [][]float64 that accepts JSON null cells as NaN, the wire
// form of missing expression values.
type Matrix [][]float64

// UnmarshalJSON implements json.Unmarshaler; each row decodes through
// Floats, sharing its null-to-NaN handling and boxing-free number scan.
func (m *Matrix) UnmarshalJSON(b []byte) error {
	if bytes.Equal(bytes.TrimSpace(b), jsonNull) {
		return nil // conventional Unmarshaler behaviour: null is a no-op
	}
	var rows []Floats
	if err := json.Unmarshal(b, &rows); err != nil {
		return err
	}
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = row
	}
	*m = out
	return nil
}

// Floats is a []float64 whose NaN and ±Inf entries serialise as JSON null,
// and which accepts JSON null entries as NaN on the way in.
type Floats []float64

var jsonNull = []byte("null")

// UnmarshalJSON implements json.Unmarshaler: null cells decode to NaN, the
// wire form of missing expression values.  The array is scanned directly —
// one append per cell, no per-cell pointer or interface boxing — because
// x_flat payloads carry hundreds of thousands of cells.  The outer decoder
// has already validated JSON syntax, so tokens between commas are numbers
// or null (neither can contain ',' or ']'); numbers convert through
// parseNumber, the x_flat scanner's conversion, so both matrix forms
// decode every cell to the same bits.
func (f *Floats) UnmarshalJSON(b []byte) error {
	if bytes.Equal(bytes.TrimSpace(b), jsonNull) {
		return nil // conventional Unmarshaler behaviour: null is a no-op
	}
	i, n := 0, len(b)
	skipWS := func() {
		for i < n && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
	}
	skipWS()
	if i >= n || b[i] != '[' {
		return fmt.Errorf("httpapi: expected a JSON array of numbers")
	}
	i++
	out := make(Floats, 0, 16)
	skipWS()
	if i < n && b[i] == ']' {
		*f = out
		return nil
	}
	for {
		skipWS()
		start := i
		for i < n && b[i] != ',' && b[i] != ']' {
			i++
		}
		if i >= n {
			return fmt.Errorf("httpapi: unterminated JSON array")
		}
		tok := bytes.TrimSpace(b[start:i])
		if bytes.Equal(tok, jsonNull) {
			out = append(out, math.NaN())
		} else {
			v, err := parseNumber(tok)
			if err != nil {
				return fmt.Errorf("httpapi: array cell %d: %w", len(out), err)
			}
			out = append(out, v)
		}
		if b[i] == ']' {
			*f = out
			return nil
		}
		i++ // consume ','
	}
}

// MarshalJSON implements json.Marshaler with the result writer's array
// formatter, so encoding/json and the direct writer agree byte for byte.
func (f Floats) MarshalJSON() ([]byte, error) {
	return appendFloats(make([]byte, 0, 2+len(f)*8), f, nil), nil
}

// DatasetJSON is the submission payload's data block.  The matrix arrives
// either as x (row per gene) or as x_flat (one flat column-major buffer,
// R's native layout, with genes and samples giving the shape) — the flat
// form skips the per-row JSON array overhead and decodes straight into
// one contiguous buffer.
type DatasetJSON struct {
	// X is the expression matrix, rows = genes, columns = samples; null
	// cells are missing values.
	X Matrix `json:"x,omitempty"`
	// XFlat is the flat column-major alternative to X: genes*samples
	// values, column by column; null cells are missing values.
	XFlat Floats `json:"x_flat,omitempty"`
	// Genes and Samples give XFlat's shape; ignored with X.
	Genes   int `json:"genes,omitempty"`
	Samples int `json:"samples,omitempty"`
	// DatasetID submits against a matrix previously registered on
	// /v1/datasets instead of carrying one: the request body shrinks to
	// a few hundred bytes, the server hashes nothing, and the run reuses
	// the registry's cached preparation.
	DatasetID string `json:"dataset_id,omitempty"`
	// Labels assigns each sample column a class.
	Labels []int `json:"labels"`
}

// OptionsJSON names the analysis: core.Options' fields, less the
// collective's ScalarParams wire ablation.  Zero values select the same
// defaults, except that b = 0 (or omitted) requests the complete
// enumeration exactly as in mt.maxT.  How the engine cuts the work is not
// a parameter: a body naming batch_size, perm_order or scalar_params is an
// unknown field and answers 400.
type OptionsJSON struct {
	Test              string  `json:"test,omitempty"`
	Side              string  `json:"side,omitempty"`
	FixedSeedSampling string  `json:"fixed_seed_sampling,omitempty"`
	B                 int64   `json:"b,omitempty"`
	NA                float64 `json:"na,omitempty"`
	Nonpara           string  `json:"nonpara,omitempty"`
	Seed              uint64  `json:"seed,omitempty"`
	MaxComplete       int64   `json:"max_complete,omitempty"`
	// Mode selects the engine: "exact" (default) or "sequential", which
	// stops rows — and the whole job — as soon as every p-value is pinned
	// within p_tolerance (see target_alpha / p_tolerance below).
	Mode string `json:"mode,omitempty"`
	// TargetAlpha is sequential mode's significance threshold of
	// interest (core.Options.SeqAlpha); 0 selects the default (0.05).
	TargetAlpha float64 `json:"target_alpha,omitempty"`
	// PTolerance is sequential mode's absolute p-value error budget
	// (core.Options.SeqTolerance); 0 selects the default (0.02).
	PTolerance float64 `json:"p_tolerance,omitempty"`
}

func (o OptionsJSON) options() core.Options {
	return core.Options{
		Test:              o.Test,
		Side:              o.Side,
		FixedSeedSampling: o.FixedSeedSampling,
		B:                 o.B,
		NA:                o.NA,
		Nonpara:           o.Nonpara,
		Seed:              o.Seed,
		MaxComplete:       o.MaxComplete,
		Mode:              o.Mode,
		SeqAlpha:          o.TargetAlpha,
		SeqTolerance:      o.PTolerance,
	}
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Dataset DatasetJSON `json:"dataset"`
	Options OptionsJSON `json:"options"`
	// NProcs is the rank count for this job (0 = server default).
	NProcs int `json:"nprocs,omitempty"`
	// CheckpointEvery is the checkpoint/progress window in permutations
	// (0 = server default).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// Class optionally forces the fairness class ("interactive" or
	// "bulk"); empty classifies by size.  The tenant is NOT in the body:
	// it travels in the X-Tenant header.
	Class string `json:"class,omitempty"`
}

// ProfileJSON reports the paper's five timed sections in seconds, the row
// layout of Tables I–V.
type ProfileJSON struct {
	PreProcessingS   float64 `json:"pre_processing_s"`
	BroadcastParamsS float64 `json:"broadcast_params_s"`
	CreateDataS      float64 `json:"create_data_s"`
	MainKernelS      float64 `json:"main_kernel_s"`
	ComputePValuesS  float64 `json:"compute_p_values_s"`
	TotalS           float64 `json:"total_s"`
}

func profileJSON(p core.Profile) *ProfileJSON {
	return &ProfileJSON{
		PreProcessingS:   p.PreProcessing.Seconds(),
		BroadcastParamsS: p.BroadcastParams.Seconds(),
		CreateDataS:      p.CreateData.Seconds(),
		MainKernelS:      p.MainKernel.Seconds(),
		ComputePValuesS:  p.ComputePValues.Seconds(),
		TotalS:           p.Total().Seconds(),
	}
}

// StatusJSON is the wire form of a job status.
type StatusJSON struct {
	ID          string  `json:"id"`
	Key         string  `json:"key"`
	State       string  `json:"state"`
	Error       string  `json:"error,omitempty"`
	Done        int64   `json:"done"`
	Total       int64   `json:"total"`
	Progress    float64 `json:"progress"` // Done/Total in [0,1]; 0 while Total unknown
	ResumedFrom int64   `json:"resumed_from,omitempty"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	NProcs      int     `json:"nprocs"`
	Tenant      string  `json:"tenant,omitempty"`
	Class       string  `json:"class,omitempty"`
	// Mode names the engine the job runs under; the seq_* fields track
	// sequential progress (rows still accumulating, per-row permutation
	// evaluations already saved against the planned total).
	Mode          string       `json:"mode,omitempty"`
	SeqActiveRows int          `json:"seq_active_rows,omitempty"`
	SeqPermsSaved int64        `json:"seq_perms_saved,omitempty"`
	Profile       *ProfileJSON `json:"profile,omitempty"`
	SubmittedAt   string       `json:"submitted_at,omitempty"`
	StartedAt     string       `json:"started_at,omitempty"`
	FinishedAt    string       `json:"finished_at,omitempty"`
}

func statusJSON(st jobs.Status) StatusJSON {
	out := StatusJSON{
		ID:          st.ID,
		Key:         st.Key,
		State:       string(st.State),
		Error:       st.Error,
		Done:        st.Done,
		Total:       st.Total,
		ResumedFrom: st.ResumedFrom,
		CacheHit:    st.CacheHit,
		NProcs:      st.NProcs,
		Tenant:      st.Tenant,
		Class:       st.Class,
	}
	if st.Mode == core.ModeSequential {
		out.Mode = st.Mode
		out.SeqActiveRows = st.SeqActiveRows
		out.SeqPermsSaved = st.SeqPermsSaved
	}
	if st.Total > 0 {
		out.Progress = float64(st.Done) / float64(st.Total)
	}
	if st.State == jobs.Done && !st.CacheHit {
		out.Profile = profileJSON(st.Profile)
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	out.SubmittedAt = stamp(st.SubmittedAt)
	out.StartedAt = stamp(st.StartedAt)
	out.FinishedAt = stamp(st.FinishedAt)
	return out
}

// ResultJSON is the GET /v1/jobs/{id}/result body.  The handler writes it
// with appendResult (result.go), not encoding/json; a field added here
// needs a line there, and TestResultDocumentMatchesEncodingJSON fails
// until it has one.
type ResultJSON struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Stat     Floats `json:"stat"`
	RawP     Floats `json:"raw_p"`
	AdjP     Floats `json:"adj_p"`
	Order    []int  `json:"order"`
	B        int64  `json:"b"`
	Complete bool   `json:"complete"`
	NProcs   int    `json:"nprocs"`
	CacheHit bool   `json:"cache_hit"`
	// Sequential-mode fields: the engine mode, the permutation count the
	// run would have performed without early stopping, the per-row
	// effective permutation counts the p-values are estimated over, and
	// the total evaluations saved.  Omitted on exact results.
	Mode       string  `json:"mode,omitempty"`
	PlannedB   int64   `json:"planned_b,omitempty"`
	BEffective []int64 `json:"b_effective,omitempty"`
	PermsSaved int64   `json:"perms_saved,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := s.requestBody(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	defer body.Close()
	req, err := DecodeSubmit(body)
	if err != nil {
		writeBodyError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	st, err := s.mgr.Submit(jobs.Spec{
		X:         req.Dataset.X,
		XFlat:     req.Dataset.XFlat,
		Genes:     req.Dataset.Genes,
		Samples:   req.Dataset.Samples,
		DatasetID: req.Dataset.DatasetID,
		Labels:    req.Dataset.Labels,
		Opt:       req.Options.options(),
		NProcs:    req.NProcs,
		Every:     req.CheckpointEvery,
		Tenant:    r.Header.Get("X-Tenant"),
		Class:     req.Class,
	})
	var shed *jobs.OverloadError
	switch {
	case errors.As(err, &shed):
		// Load shed: the Retry-After guidance comes from the observed
		// queue drain rate (or the token bucket's refill time), so a
		// well-behaved client that honours it usually succeeds next try.
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(shed.RetryAfter), 10))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"reason":        shed.Reason,
			"retry_after_s": shed.RetryAfter.Seconds(),
		})
	case errors.Is(err, jobs.ErrQueueFull) || errors.Is(err, jobs.ErrRateLimited):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, jobs.ErrUnknownDataset):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "job_submitted",
			slog.String("request_id", RequestID(r.Context())),
			slog.String("job_id", st.ID),
			slog.String("tenant", st.Tenant),
			slog.String("class", st.Class),
			slog.String("state", string(st.State)),
			slog.Bool("cache_hit", st.CacheHit),
		)
		writeJSON(w, http.StatusAccepted, statusJSON(st))
	}
}

// retryAfterSeconds renders a shed's wait as whole seconds for the
// Retry-After header, rounding up so the client never retries early.
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// SPBContentType is the Content-Type of binary spb dataset uploads.
const SPBContentType = "application/x-sprint-spb"

// DatasetListJSON is the GET /v1/datasets body.
type DatasetListJSON struct {
	Datasets []jobs.DatasetInfo `json:"datasets"`
}

// handlePutDataset registers a matrix in the content-addressed registry:
// binary spb bodies decode zero-copy, JSON bodies carry the same
// "x"/"x_flat" shapes as a submission's dataset block (labels, if
// present, are ignored — a dataset is just the matrix; the labels travel
// with each job).  Responds 201 on first registration, 200 on a
// content-identical re-upload, both with the registry entry.
func (s *Server) handlePutDataset(w http.ResponseWriter, r *http.Request) {
	body, err := s.requestBody(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	defer body.Close()

	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	var m matrix.Matrix
	switch ct {
	case SPBContentType, "application/octet-stream":
		f, err := matrix.Decode(body)
		if err != nil {
			writeBodyError(w, err)
			return
		}
		m = f.M
	case "", "application/json":
		d, err := decodeDatasetUpload(body)
		if err != nil {
			writeBodyError(w, fmt.Errorf("decoding dataset: %w", err))
			return
		}
		m, err = datasetMatrix(d)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported content type %q (want %s or application/json)", ct, SPBContentType))
		return
	}

	info, created, err := s.mgr.PutDataset(m)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	switch {
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil && info.ID != "":
		// Registered but the disk mirror failed: the id IS usable (the
		// in-memory entry serves it), so the client must still receive
		// it — with the durability warning, not a rejection that blames
		// the client for a server-side disk fault.
		writeJSON(w, code, DatasetUploadJSON{DatasetInfo: info, MirrorError: err.Error()})
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, code, DatasetUploadJSON{DatasetInfo: info})
	}
}

// DatasetUploadJSON is the PUT /v1/datasets response: the registry entry
// plus, when the configured disk mirror could not be written, the error —
// the dataset is registered and usable either way, the warning is about
// restart durability only.
type DatasetUploadJSON struct {
	jobs.DatasetInfo
	MirrorError string `json:"mirror_error,omitempty"`
}

// datasetMatrix resolves an uploaded DatasetJSON into the engine's
// row-major matrix.  The decoded buffers are fresh (they came off the
// wire), so the flat form is consumed in place — the only full pass is
// the in-place transpose.
func datasetMatrix(d DatasetJSON) (matrix.Matrix, error) {
	switch {
	case d.DatasetID != "":
		return matrix.Matrix{}, fmt.Errorf("dataset upload cannot itself reference a dataset_id")
	case d.X != nil && d.XFlat != nil:
		return matrix.Matrix{}, fmt.Errorf("dataset upload carries both x and x_flat")
	case d.XFlat != nil:
		if d.Genes < 1 || d.Samples < 1 {
			return matrix.Matrix{}, fmt.Errorf("x_flat upload needs positive genes and samples, got %dx%d", d.Genes, d.Samples)
		}
		if !matrix.IsShape(len(d.XFlat), d.Genes, d.Samples) {
			return matrix.Matrix{}, fmt.Errorf("x_flat upload has %d values for %d genes × %d samples", len(d.XFlat), d.Genes, d.Samples)
		}
		return matrix.FromColumnMajor(d.XFlat, d.Genes, d.Samples), nil
	case d.X != nil:
		m, err := matrix.FromRows(d.X)
		if err != nil {
			return matrix.Matrix{}, err
		}
		return m, nil
	default:
		return matrix.Matrix{}, fmt.Errorf("dataset upload carries no matrix (want x or x_flat)")
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DatasetListJSON{Datasets: s.mgr.Datasets()})
}

func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.mgr.DatasetInfoByID(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownDataset):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, info)
	}
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	err := s.mgr.DeleteDataset(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownDataset):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrDatasetBusy):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusJSON(st))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, err := s.mgr.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrNotDone):
		writeJSON(w, http.StatusConflict, statusJSON(st))
	case errors.Is(err, jobs.ErrResultEvicted):
		// The error text carries the hint: resubmitting the same body
		// recomputes the identical bits.
		writeError(w, http.StatusGone, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		out := ResultJSON{
			ID:       st.ID,
			Key:      st.Key,
			Stat:     res.Stat,
			RawP:     res.RawP,
			AdjP:     res.AdjP,
			Order:    res.Order,
			B:        res.B,
			Complete: res.Complete,
			NProcs:   res.NProcs,
			CacheHit: st.CacheHit,
		}
		if res.Sequential() {
			out.Mode = res.Mode
			out.PlannedB = res.PlannedB
			out.BEffective = res.BEff
			out.PermsSaved = res.SeqPermsSaved()
		}
		writeResult(w, &out)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusJSON(st))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsDoc())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
