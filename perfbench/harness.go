package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hummer"
	"hummer/internal/server"
)

// queryTimeout mirrors hummerd's default -query-timeout.
const queryTimeout = 60 * time.Second

// harness is one hummerd instance on loopback plus the client that
// drives it. The server runs in this process: server.Handler() behind
// a net/http server on 127.0.0.1, reached over real TCP connections.
type harness struct {
	db      *hummer.DB
	handler http.Handler
	srv     *http.Server
	base    string
	client  *http.Client
	served  chan error
}

// startHarness starts hummerd over a fresh DB with hummerd's defaults
// and a client limited to conns connections.
func startHarness(conns int) (*harness, error) {
	db := hummer.New()
	handler := server.New(db,
		server.WithQueryTimeout(queryTimeout),
		server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
	).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	h := &harness{
		db:      db,
		handler: handler,
		srv:     &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the server and waits until its serve loop has returned.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		_ = h.srv.Close()
	}
	<-h.served
	h.client.CloseIdleConnections()
}

// request is one HTTP call of a workload.
type request struct {
	method string
	path   string
	body   []byte
	stream bool
}

func postQuery(sql string, lineage bool) request {
	return request{method: http.MethodPost, path: "/v1/query", body: queryBody(sql, lineage)}
}

func postStream(sql string, lineage bool) request {
	return request{method: http.MethodPost, path: "/v1/query/stream", body: queryBody(sql, lineage), stream: true}
}

func postBatch(stmts ...string) request {
	return request{method: http.MethodPost, path: "/v1/batch", body: batchBody(stmts)}
}

func postSource(src source) request {
	return request{method: http.MethodPost, path: "/v1/sources", body: registerBody(src)}
}

var purgeCache = request{method: http.MethodDelete, path: "/v1/cache"}

// outcome is what one request returned, with its timings measured
// from the moment it was due.
type outcome struct {
	status int
	err    error
	// digest hashes the response body; batch bodies are hashed without
	// their per-statement timings.
	digest digest
	// kept is the body, when the caller asked to keep it.
	kept []byte
	// ttfr is the time to the first NDJSON row record of a stream, or
	// to the response headers of a materialized request.
	ttfr    time.Duration
	latency time.Duration
}

// ok reports whether the request succeeded.
func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// do sends r and reads the whole response. Timings run from due.
func (h *harness) do(ctx context.Context, r request, due time.Time, keep bool) outcome {
	var out outcome
	req, err := http.NewRequestWithContext(ctx, r.method, h.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		out.err = err
		out.latency = time.Since(due)
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	var body []byte
	if r.stream && resp.StatusCode == http.StatusOK {
		body, out.ttfr, err = readStream(resp.Body, due)
	} else {
		out.ttfr = time.Since(due)
		body, err = io.ReadAll(resp.Body)
	}
	out.latency = time.Since(due)
	if err != nil {
		out.err = err
		return out
	}
	if r.path == "/v1/batch" {
		body = stripSeconds(body)
	}
	out.digest = digestOf(body)
	if keep {
		out.kept = body
	}
	return out
}

// digest identifies a response body. maphash is fast enough to hash
// every response on the request path without crowding the server off
// the CPU it shares with the load generator.
type digest uint64

var digestSeed = maphash.MakeSeed()

func digestOf(body []byte) digest { return digest(maphash.Bytes(digestSeed, body)) }

// readStream reads an NDJSON stream, noting when the first row record
// arrived. A stream must end in a summary trailer.
func readStream(body io.Reader, due time.Time) ([]byte, time.Duration, error) {
	var buf bytes.Buffer
	br := bufio.NewReaderSize(body, 32<<10)
	var ttfr time.Duration
	var last []byte
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if ttfr == 0 && bytes.HasPrefix(line, []byte(`{"type":"row"`)) {
				ttfr = time.Since(due)
			}
			buf.Write(line)
			last = buf.Bytes()[buf.Len()-len(line):]
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if !bytes.HasPrefix(last, []byte(`{"type":"summary"`)) {
		return nil, 0, fmt.Errorf("stream ended without a summary trailer")
	}
	if ttfr == 0 {
		ttfr = time.Since(due)
	}
	return buf.Bytes(), ttfr, nil
}

// stripSeconds removes the per-statement "seconds" timings from a
// /v1/batch body, the only part of it that varies between runs.
func stripSeconds(body []byte) []byte {
	key := []byte(`,"seconds":`)
	var out []byte
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i]...)
		j := i + len(key)
		for j < len(body) && bytes.IndexByte([]byte("0123456789.eE+-"), body[j]) >= 0 {
			j++
		}
		body = body[j:]
	}
}

// record serves r through handler in process, into a recorder.
func record(handler http.Handler, r request) *httptest.ResponseRecorder {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec
}

// mustDo issues r now and fails unless it succeeds with a 2xx status.
func (h *harness) mustDo(ctx context.Context, r request, keep bool) (outcome, error) {
	o := h.do(ctx, r, time.Now(), keep)
	if !o.ok() {
		return o, fmt.Errorf("%s %s: status %d: %v", r.method, r.path, o.status, o.err)
	}
	return o, nil
}

// connections is the client's connection budget: one per CPU the
// operating system reports.
func connections() int { return runtime.NumCPU() }
