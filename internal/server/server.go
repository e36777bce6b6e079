package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ivmeps"
)

// Options configures a Server. The zero value is usable: every field has a
// serviceable default.
type Options struct {
	// Query is the served query's text, echoed by /v1/stats. Informational.
	Query string

	// PageSize is the default rows-per-page of paginated reads (when the
	// request has no ?limit). 0 means 512.
	PageSize int
	// MaxPageSize caps ?limit. 0 means 8192.
	MaxPageSize int
	// ReaderTTL is how long an idle pagination cursor stays valid before
	// its snapshot pin is released. 0 means 30s.
	ReaderTTL time.Duration
	// MaxReaders caps concurrently open pagination cursors; beyond it the
	// least-recently-used cursor is evicted. 0 means 128.
	MaxReaders int

	// MaxCommitOps bounds the ops accepted in one POST /v1/commit.
	// 0 means DefaultMaxOps.
	MaxCommitOps int
	// MaxCommitBytes bounds a commit request body. 0 means 64 MiB.
	MaxCommitBytes int64

	// WatchBuffer is the per-stream event buffer (in commits) when the
	// request has no ?buffer; 0 means the engine's DefaultWatchBuffer.
	WatchBuffer int
	// AnchorChunk is the rows-per-frame granularity of the watch anchor
	// state dump. 0 means 512.
	AnchorChunk int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 512
	}
	if o.MaxPageSize == 0 {
		o.MaxPageSize = 8192
	}
	if o.ReaderTTL == 0 {
		o.ReaderTTL = 30 * time.Second
	}
	if o.MaxReaders == 0 {
		o.MaxReaders = 128
	}
	if o.MaxCommitOps == 0 {
		o.MaxCommitOps = DefaultMaxOps
	}
	if o.MaxCommitBytes == 0 {
		o.MaxCommitBytes = 64 << 20
	}
	if o.AnchorChunk == 0 {
		o.AnchorChunk = 512
	}
	return o
}

// Server is the HTTP query service over one built engine. It implements
// http.Handler; mount it directly or under a prefix. The engine must have
// been Built; the server is its only writer (commits are serialized
// internally — the engine is single-writer), while reads and watch streams
// run concurrently on snapshots and never block a commit.
type Server struct {
	eng     *ivmeps.Engine
	opts    Options
	mux     *http.ServeMux
	metrics metrics
	readers readerTable

	commitMu sync.Mutex    // serializes POST /v1/commit onto the single-writer engine
	batch    *ivmeps.Batch // reused under commitMu

	drainOnce sync.Once
	drainCh   chan struct{} // closed by Drain
}

// New wraps a built engine. The caller keeps ownership of the engine's
// lifetime: Drain the server, shut the http.Server down, then Close the
// engine (cmd/ivmd wires this order up behind SIGTERM).
func New(eng *ivmeps.Engine, opts Options) *Server {
	s := &Server{
		eng:     eng,
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		batch:   eng.NewBatch(),
		drainCh: make(chan struct{}),
	}
	s.readers.m = make(map[uint64]*pageReader)
	s.readers.max = s.opts.MaxReaders
	s.readers.ttl = s.opts.ReaderTTL
	s.mux.HandleFunc("POST /v1/commit", s.handleCommit)
	s.mux.HandleFunc("GET /v1/result/rows", func(w http.ResponseWriter, r *http.Request) {
		s.handleRows(w, r, "")
	})
	s.mux.HandleFunc("GET /v1/views/{view}/rows", func(w http.ResponseWriter, r *http.Request) {
		s.handleRows(w, r, r.PathValue("view"))
	})
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain begins an orderly shutdown: /healthz flips to 503, new commits and
// new watch streams are refused with CodeDraining, and every live watch
// stream is ended with a terminal "end" frame after the events already
// committed — no stream is just dropped. In-flight commits and reads run
// to completion (http.Server.Shutdown waits for them). Drain is
// idempotent and returns immediately; it does not wait for the streams to
// finish writing.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// reply writes a JSON response body.
func (s *Server) reply(w http.ResponseWriter, ep endpoint, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	s.metrics.hit(ep, status)
}

// fail writes a wire-error response.
func (s *Server) fail(w http.ResponseWriter, ep endpoint, err error) {
	we := EncodeError(err)
	status := HTTPStatus(we.Code)
	s.reply(w, ep, status, struct {
		Error *WireError `json:"error"`
	}{we})
}

// handleCommit applies one NDJSON op stream as one atomic engine commit
// and reports the epoch it published. The engine is single-writer, so
// concurrent commit requests serialize on commitMu; everything before the
// engine call (decode, batch assembly) and after it (response encoding)
// runs outside the critical section except the batch fill itself, which
// reuses one pooled builder.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.fail(w, epCommit, &WireError{Code: CodeDraining, Message: "server is draining"})
		return
	}
	ops, err := DecodeOps(http.MaxBytesReader(w, r.Body, s.opts.MaxCommitBytes), s.opts.MaxCommitOps)
	if err != nil {
		s.fail(w, epCommit, err)
		return
	}

	start := time.Now()
	s.commitMu.Lock()
	s.batch.Reset()
	for i := range ops {
		s.batch.Apply(ops[i].Rel, ops[i].Row, ops[i].Mult)
	}
	err = s.eng.Commit(s.batch)
	s.batch.Reset() // drop row references before releasing the lock
	var epoch uint64
	if err == nil {
		epoch = s.eng.Epoch()
	}
	s.commitMu.Unlock()

	if err != nil {
		s.metrics.commitsFailed.Add(1)
		s.fail(w, epCommit, err)
		return
	}
	s.metrics.commitsOK.Add(1)
	s.metrics.observeCommit(time.Since(start))
	w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	s.reply(w, epCommit, http.StatusOK, &CommitReply{Epoch: epoch, Ops: len(ops)})
}

// handleStats reports engine counters, epoch, and server gauges.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	s.reply(w, epStats, http.StatusOK, &StatsReply{
		Query:    s.opts.Query,
		Epoch:    s.eng.Epoch(),
		N:        s.eng.N(),
		Views:    s.eng.Views(),
		Watchers: s.metrics.watchers.Load(),
		Readers:  s.readers.open(),
		Draining: s.Draining(),
		Engine: EngineStats{
			Updates:         st.Updates,
			MinorRebalances: st.MinorRebalances,
			MajorRebalances: st.MajorRebalances,
			ViewDeltas:      st.ViewDeltas,
			Batches:         st.Batches,
			BatchRelations:  st.BatchRelations,
		},
	})
}

// handleHealth is the liveness probe: 200 while serving, 503 once
// draining (load balancers stop routing before the listener closes).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		s.metrics.hit(epHealth, http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
	s.metrics.hit(epHealth, http.StatusOK)
}
