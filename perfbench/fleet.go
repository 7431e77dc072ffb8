package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/corpus"
	"starts/internal/engine"
	"starts/internal/faulty"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/server"
	"starts/internal/source"
)

// buildSources generates the seed's corpus and indexes one source per
// generated collection. exhaustive pins the engines to the unpruned
// ranked path, which is what the reference fleet uses.
func buildSources(seed int64, n, docs int, exhaustive bool) ([]*source.Source, error) {
	g := corpus.Generate(corpus.Config{Seed: seed, NumSources: n, DocsPerSource: docs})
	srcs := make([]*source.Source, 0, len(g.Sources))
	for _, spec := range g.Sources {
		cfg := engine.NewVectorConfig()
		cfg.Exhaustive = exhaustive
		eng, err := engine.NewWithDocs(cfg, spec.Docs, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, fmt.Errorf("indexing %s: %w", spec.ID, err)
		}
		s, err := source.New(spec.ID, eng)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	return srcs, nil
}

// newMetasearcher configures a metasearcher the way the CLIs do when
// caching is on: default selector and merger, a query cache sharing the
// metasearcher's registry. With a recorder, the selector, merger and
// every source connection are wrapped in the benchmark's timing
// wrappers (which keep each wrapped value's optional capabilities);
// keepResults has the source wrappers keep answers for the post-run
// encode timing.
func newMetasearcher(conns []client.Conn, rec *recorder, srcConcurrency int, keepResults bool) *core.Metasearcher {
	reg := obs.NewRegistry()
	opts := core.Options{
		Metrics:           reg,
		Cache:             qcache.New(qcache.Config{Metrics: reg}),
		SourceConcurrency: srcConcurrency,
	}
	if rec != nil {
		opts.Selector = timedSelector{inner: gloss.VSum{}, rec: rec}
		opts.Merger = wrapStrategy(merge.TermStats{}, rec)
	}
	ms := core.New(opts)
	for _, c := range conns {
		if rec != nil {
			c = wrapConn(c, rec, "source.query", keepResults)
		}
		ms.Add(c)
	}
	return ms
}

func localConns(srcs []*source.Source) []client.Conn {
	conns := make([]client.Conn, len(srcs))
	for i, s := range srcs {
		conns[i] = client.NewLocalConn(s, nil)
	}
	return conns
}

// httpServer is one loopback HTTP server run by the benchmark.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// listen reserves a loopback port; the server's handler is started on
// it separately, because handlers need the server's own URL.
func listen() (*httpServer, net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return &httpServer{url: "http://" + ln.Addr().String(), done: make(chan struct{})}, ln, nil
}

func (h *httpServer) start(ln net.Listener, handler http.Handler) {
	h.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("# server error:", err)
		}
	}()
}

// stop closes the server and its connections and waits for Serve to
// return.
func (h *httpServer) stop() {
	if h.srv == nil {
		return
	}
	_ = h.srv.Close()
	<-h.done
}

// transport returns an HTTP transport capped at perHost connections to
// any one host, counting the body bytes it carries into meter.
func transport(perHost int, meter *byteMeter) (*http.Transport, *http.Client) {
	tr := &http.Transport{
		MaxConnsPerHost:     perHost,
		MaxIdleConnsPerHost: perHost,
		MaxIdleConns:        4 * perHost,
		IdleConnTimeout:     90 * time.Second,
	}
	return tr, &http.Client{Timeout: 30 * time.Second, Transport: &meteredTransport{inner: tr, meter: meter}}
}

// leafStack is the leaf STARTS server of the http-straggler workload:
// one server.Server over the whole resource.
type leafStack struct {
	srv  *server.Server
	http *httpServer
}

func startLeaf(srcs []*source.Source, traceCap int) (*leafStack, error) {
	res := source.NewResource()
	for _, s := range srcs {
		if err := res.Add(s); err != nil {
			return nil, err
		}
	}
	hs, ln, err := listen()
	if err != nil {
		return nil, err
	}
	var opts []server.Option
	if traceCap > 0 {
		opts = append(opts, server.WithTraceCapacity(traceCap))
	}
	leaf := &leafStack{srv: server.New(res, hs.url, opts...), http: hs}
	hs.start(ln, leaf.srv)
	return leaf, nil
}

// frontStack is a metasearcher over the leaf, reached through
// client.Discover (so every source conn is a batch-capable HTTPConn),
// with one source slowed by faulty.WrapBatch, published through
// core.Broker and server.ConnServer.
type frontStack struct {
	ms        *core.Metasearcher
	http      *httpServer
	leafTr    *http.Transport
	leafBytes *byteMeter
	streamURL string
}

const brokerID = "bench-broker"

func startFront(ctx context.Context, leafURL string, perHost int, delay time.Duration, srcConcurrency int, rec *recorder) (*frontStack, error) {
	fs := &frontStack{leafBytes: &byteMeter{}}
	var hc *http.Client
	fs.leafTr, hc = transport(perHost, fs.leafBytes)
	if rec != nil {
		hc.Transport = &tracedTransport{inner: hc.Transport, rec: rec, name: "client.leaf"}
	}
	conns, err := client.NewClient(hc).Discover(ctx, leafURL+"/resource")
	if err != nil {
		fs.leafTr.CloseIdleConnections()
		return nil, fmt.Errorf("discovering the leaf: %w", err)
	}
	for i, c := range conns {
		bc, ok := c.(client.BatchConn)
		if !ok {
			fs.leafTr.CloseIdleConnections()
			return nil, fmt.Errorf("discovered conn %s is not batch-capable", c.SourceID())
		}
		if i == 0 {
			// A fixed delay per wire call, before the call reaches the
			// leaf: the straggler is slow, not busy.
			conns[i] = faulty.WrapBatch(bc, faulty.Config{Latency: delay})
		}
	}
	fs.ms = newMetasearcher(conns, rec, srcConcurrency, true)
	if err := fs.ms.Harvest(ctx); err != nil {
		fs.close()
		return nil, fmt.Errorf("harvesting the leaf: %w", err)
	}
	b, err := fs.ms.NewBroker(brokerID)
	if err != nil {
		fs.close()
		return nil, err
	}
	var broker client.Conn = b
	if rec != nil {
		broker = wrapConn(b, rec, "broker.search", false)
	}
	hs, ln, err := listen()
	if err != nil {
		fs.close()
		return nil, err
	}
	fs.http = hs
	var h http.Handler = server.NewConnServer(broker, hs.url)
	if rec != nil {
		h = &handlerHook{inner: h, name: "server.front", rec: rec}
	}
	hs.start(ln, h)
	fs.streamURL = client.StreamURL(hs.url + "/sources/" + brokerID + "/query")
	return fs, nil
}

func (fs *frontStack) close() {
	if fs.http != nil {
		fs.http.stop()
	}
	fs.ms.Close()
	fs.leafTr.CloseIdleConnections()
}
