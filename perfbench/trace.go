package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one HTTP request
// share Req; a server span's Parent is the client span that sent it.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	Req       string `json:"req,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, req string) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

// end closes span id, recording the bytes that crossed its boundary.
func (t *tracer) end(id int, reqBytes, respBytes int64) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.ReqBytes, s.RespBytes = now, reqBytes, respBytes
}

// record adds a closed span for a call timed by the caller.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: s, End: s + int64(d)})
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children's spans cover (overlapping
// children are counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// reqHeader carries "<request id>/<client span id>" from client to server.
const reqHeader = "X-Bench-Request"

// endpoint names the service call a URL path makes.
func endpoint(path string) string {
	switch {
	case strings.HasSuffix(path, "/commit"):
		return "commit"
	case strings.HasSuffix(path, "/rows"):
		return "rows"
	case strings.HasSuffix(path, "/watch"):
		return "watch"
	}
	return "other"
}

// tracingRT is the client-side boundary: it opens a span per request,
// stamps the request id, and counts request and response bytes. The span
// ends when the caller closes the response body.
type tracingRT struct {
	tr   *tracer
	next http.RoundTripper
}

// RoundTrip sends req with a request-id header inside a client span.
func (rt *tracingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rid := fmt.Sprint(rt.tr.reqs.Add(1))
	id := rt.tr.start("client."+endpoint(req.URL.Path), 0, rid)
	r2 := req.Clone(req.Context())
	r2.Header.Set(reqHeader, fmt.Sprintf("%s/%d", rid, id))
	reqBytes := max(req.ContentLength, 0)
	resp, err := rt.next.RoundTrip(r2)
	if err != nil {
		rt.tr.end(id, reqBytes, 0)
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) { rt.tr.end(id, reqBytes, n) }}
	return resp, nil
}

// countingBody counts the bytes read from a response body and closes the
// client span when the body is closed.
type countingBody struct {
	rc   io.ReadCloser
	n    atomic.Int64 // read by the stream consumer, totalled by Close
	once sync.Once
	done func(n int64)
}

// Read reads from the body, counting bytes.
func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// Close closes the body and, once, the span.
func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() { b.done(b.n.Load()) })
	return err
}

// handler is the server-side boundary: a child span of the client span
// named in the request header, counting response bytes.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, parent := "", 0
		if h := r.Header.Get(reqHeader); h != "" {
			if i := strings.IndexByte(h, '/'); i > 0 {
				rid = h[:i]
				fmt.Sscan(h[i+1:], &parent)
			}
		}
		id := t.start("server."+endpoint(r.URL.Path), parent, rid)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.end(id, max(r.ContentLength, 0), cw.n)
	})
}

// countingWriter counts response bytes and keeps streaming responses
// (the watch endpoint) flushable.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

// Write writes to the response, counting bytes.
func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Flush flushes the underlying response when it can.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// spanStats summarizes the spans named name: durations and self times in
// µs, and the bytes that crossed the boundary.
type spanStats struct {
	dur, self           []float64
	reqBytes, respBytes int64
}

func collect(spans []span, self map[int]int64, name string) spanStats {
	var st spanStats
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		st.dur = append(st.dur, float64(s.dur())/1e3)
		st.self = append(st.self, float64(self[s.ID])/1e3)
		st.reqBytes += s.ReqBytes
		st.respBytes += s.RespBytes
	}
	return st
}
