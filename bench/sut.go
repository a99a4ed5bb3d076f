package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"megadata/internal/flowserve"
	"megadata/internal/flowsource"
	"megadata/internal/flowstream"
)

// served is the system under test: exactly what cmd/flowserved wires
// (flowstream.New with a streaming source, then System.Serve), hosted in
// this process so that epoch seals are commanded instead of ticker-driven.
// All ingest and query traffic still crosses loopback sockets.
type served struct {
	sys    *flowstream.System
	srv    *flowstream.Server
	walDir string
}

func startServed(p params) (*served, error) {
	cfg := flowstream.Config{
		Sites:      p.Sites,
		TreeBudget: p.Budget,
		Epoch:      epochWidth,
		Start:      epoch0,
		Shards:     p.Shards,
		Source:     &flowsource.Config{},
	}
	s := &served{}
	if p.WAL {
		// The journal lives inside the checkout (.bench_build is in
		// .gitignore) and is removed when the run ends.
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(".bench_build", "wal-")
		if err != nil {
			return nil, err
		}
		s.walDir = dir
		cfg.WALDir = filepath.Join(dir, "wal")
	}
	sys, err := flowstream.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.sys = sys
	// One address issues every query, so flowserved's default 50/s
	// per-client token bucket is opened up; nothing else departs from the
	// flowserved defaults.
	srv, err := sys.Serve(flowstream.ServeConfig{RatePerSec: 1e9})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// close tears the system down and removes the journal directory.
func (s *served) close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
		if s.sys.Source() != nil {
			if cerr := s.sys.Source().Close(); err == nil {
				err = cerr
			}
		}
		if cerr := s.sys.CloseDisk(); err == nil {
			err = cerr
		}
	}
	if s.walDir != "" {
		if rerr := os.RemoveAll(s.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// dialIngest opens one producer connection and announces its site.
func (s *served) dialIngest(site string) (net.Conn, error) {
	conn, err := net.Dial("tcp", s.srv.IngestAddr().String())
	if err != nil {
		return nil, err
	}
	if err := flowserve.WritePreamble(conn, site); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// waitFrames blocks until the source has decoded `sent` records: only then
// does a commanded seal cover every byte written for the epoch.
func (s *served) waitFrames(sent uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for s.sys.SourceStats().Frames < sent {
		if time.Now().After(deadline) {
			return fmt.Errorf("source decoded %d of %d records after 60s", s.sys.SourceStats().Frames, sent)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// queryClient is one keep-alive HTTP client issuing POST /query.
type queryClient struct {
	url  string
	http *http.Client
	buf  bytes.Buffer
}

func newQueryClient(addr net.Addr) *queryClient {
	return &queryClient{
		url:  "http://" + addr.String() + "/query",
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
}

// answer is what a client keeps of one response: enough to check it
// byte-for-byte later without holding the body.
type answer struct {
	status int
	crc    uint32
	size   int
	lat    time.Duration
}

func (c *queryClient) post(stmt string) (answer, error) {
	t0 := time.Now()
	resp, err := c.http.Post(c.url, "text/plain", bytes.NewReader([]byte(stmt)))
	if err != nil {
		return answer{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return answer{}, err
	}
	return answer{resp.StatusCode, crc32.ChecksumIEEE(c.buf.Bytes()), c.buf.Len(), lat}, nil
}

func (c *queryClient) close() { c.http.CloseIdleConnections() }

// sseReader is the passive standing-query subscriber: it reads
// GET /subscribe events and only timestamps their arrival, keyed by the
// notification's delivery sequence.
type sseReader struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	arrivals map[uint64]time.Time
	err      error
}

func (s *served) subscribe(stmt string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	u := "http://" + s.srv.QueryAddr().String() + "/subscribe?q=" + url.QueryEscape(stmt)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	r := &sseReader{cancel: cancel, done: make(chan struct{}), arrivals: make(map[uint64]time.Time)}
	go func() {
		defer close(r.done)
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		prefix := []byte(`data: {"seq":`)
		for {
			line, err := br.ReadSlice('\n')
			now := time.Now()
			if err != nil && err != bufio.ErrBufferFull {
				if ctx.Err() == nil && err != io.EOF {
					r.mu.Lock()
					r.err = err
					r.mu.Unlock()
				}
				return
			}
			if !bytes.HasPrefix(line, prefix) {
				continue
			}
			rest := line[len(prefix):]
			end := bytes.IndexByte(rest, ',')
			if end < 0 {
				continue
			}
			seq, perr := strconv.ParseUint(string(rest[:end]), 10, 64)
			if perr != nil {
				continue
			}
			r.mu.Lock()
			r.arrivals[seq] = now
			r.mu.Unlock()
		}
	}()
	return r, nil
}

// arrival reports when notification seq was read, waiting up to a second
// for an event still in flight.
func (r *sseReader) arrival(seq uint64) (time.Time, bool) {
	for i := 0; i < 2000; i++ {
		r.mu.Lock()
		t, ok := r.arrivals[seq]
		r.mu.Unlock()
		if ok {
			return t, true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return time.Time{}, false
}

func (r *sseReader) close() error {
	r.cancel()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
