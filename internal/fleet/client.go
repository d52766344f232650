package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Peer-hop headers. X-Request-ID is the serving layer's per-request ID,
// propagated verbatim across fill and proxy hops so one grep finds a
// request's log lines on every node it touched. X-Fleet-Path is the
// accumulated hop path ("nodeA>nodeB"); each receiving node appends
// itself and echoes the final path in its response. X-Fleet-Forwarded
// marks a proxied request so the owner never proxies again — ownership
// views can disagree transiently, and one hop is always enough to reach
// a node willing to compute. traceparent is the W3C trace-context
// header: it carries the trace ID plus the calling span's ID, so the
// receiving node's request span becomes a child of the hop span and a
// cross-node request merges into one span tree.
const (
	HeaderRequestID   = "X-Request-Id"
	HeaderPath        = "X-Fleet-Path"
	HeaderForwarded   = "X-Fleet-Forwarded"
	HeaderTraceparent = "Traceparent"
)

// Hop is the per-request context a peer call carries across the wire:
// the request ID, the accumulated hop path, and the traceparent of the
// span covering the hop. Zero fields are simply not sent.
type Hop struct {
	ReqID       string
	Path        string
	Traceparent string
	// forwarded marks a proxied request (Proxy sets it).
	forwarded bool
}

// set stamps the hop headers onto an outbound peer request.
func (h Hop) set(req *http.Request) {
	if h.ReqID != "" {
		req.Header.Set(HeaderRequestID, h.ReqID)
	}
	if h.Path != "" {
		req.Header.Set(HeaderPath, h.Path)
	}
	if h.Traceparent != "" {
		req.Header.Set(HeaderTraceparent, h.Traceparent)
	}
	if h.forwarded {
		req.Header.Set(HeaderForwarded, "1")
	}
}

// call is the one peer round-trip behind fill, proxy, backfill, trace
// collection and gossip: an HTTP request to addr bounded by timeout,
// stamped with the hop headers, its response body read up to
// maxPeerBody. Anything but a 2xx is an error quoting the start of the
// peer's message; the response comes back with it (body consumed and
// closed) for the status code and headers — a 404 is a miss to a fill
// and a failure to everyone else.
func (f *Fleet) call(ctx context.Context, timeout time.Duration, method, addr, path string, body []byte, hop Hop) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hop.set(req)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b[:min(len(b), 1024)])))
	}
	return resp, b, err
}

// maxPeerBody bounds a peer response (a cached simulation result; the
// largest sweeps are a few MB).
const maxPeerBody = 64 << 20

// AppendPath extends a hop path with one node.
func AppendPath(path, node string) string {
	if path == "" {
		return node
	}
	return path + ">" + node
}

// short abbreviates a content-address key for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// ProxySpec is a request the serving layer is willing to forward to the
// key's owner: the endpoint path plus the canonical body (canonical, so
// the owner derives the identical cache key).
type ProxySpec struct {
	Path string
	Body []byte
}

// Fill asks the key's owner, then its ring successors, for an
// already-cached result. It returns the bytes and the serving peer's ID
// on a hit. Only alive non-self members are asked, at most three: the
// owner plus the two nodes that inherit its keys if it dies — anyone
// else is no likelier than chance to hold the value.
func (f *Fleet) Fill(ctx context.Context, key string, hop Hop) ([]byte, string, bool) {
	for _, m := range f.owners(key, 3) {
		if m.Self || m.State != StateAlive || m.Addr == "" {
			continue
		}
		resp, b, err := f.call(ctx, fillTimeout, http.MethodGet, m.Addr, "/v1/cache/"+key, nil, hop)
		switch {
		case err == nil:
			f.metrics.fillHits.With("peer", m.ID).Add(1)
			return b, m.ID, true
		case resp != nil && resp.StatusCode == http.StatusNotFound:
			f.metrics.fillMisses.With("peer", m.ID).Add(1)
		default:
			f.metrics.fillErrors.With("peer", m.ID).Add(1)
			f.logf("fill %s from %s: %v", short(key), m.ID, err)
		}
	}
	return nil, "", false
}

// Proxy forwards a full request to the owner, which computes (or
// singleflight-joins) and caches it locally before answering. It
// returns the response bytes plus the owner-reported hop path.
func (f *Fleet) Proxy(ctx context.Context, m Member, spec ProxySpec, hop Hop) ([]byte, string, error) {
	hop.forwarded = true
	resp, b, err := f.call(ctx, f.cfg.ProxyTimeout, http.MethodPost, m.Addr, spec.Path, spec.Body, hop)
	if err != nil {
		f.metrics.proxyErrors.With("peer", m.ID).Add(1)
		f.logf("proxy %s to %s: %v", spec.Path, m.ID, err)
		return nil, "", err
	}
	f.metrics.proxied.With("peer", m.ID).Add(1)
	return b, resp.Header.Get(HeaderPath), nil
}

// Backfill pushes a locally computed result to the key's current owner,
// asynchronously and best-effort. It runs when a node computed a key it
// does not own (the owner was down or had to be bypassed): without the
// push, every future fill for the key would miss until the owner
// recomputes it. With it, the ring converges back to
// one-simulation-per-key as soon as the owner is reachable.
func (f *Fleet) Backfill(key string, val []byte) {
	owner, ok := f.Owner(key)
	if !ok || owner.Self || owner.Addr == "" {
		return
	}
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		if _, _, err := f.call(context.Background(), fillTimeout+8*time.Second, http.MethodPut, owner.Addr, "/v1/cache/"+key, val, Hop{}); err != nil {
			f.metrics.backfillErrors.Add(1)
			f.logf("backfill %s to %s: %v", short(key), owner.ID, err)
			return
		}
		f.metrics.backfills.Add(1)
	}()
}

// Fallback records that a request fell back to local compute because
// the key's owner was unreachable (the serving layer calls it so the
// counter lives next to the other fleet series).
func (f *Fleet) Fallback() { f.metrics.fallbacks.Add(1) }

// CollectPeers GETs path from every alive non-self member concurrently
// and returns the successful bodies keyed by member ID. Trace retrieval
// uses it to gather a request's spans from every node it may have
// touched; errors and non-2xx answers are skipped (a trace merge is best
// effort — a dead peer's spans are simply absent).
func (f *Fleet) CollectPeers(ctx context.Context, path string) map[string][]byte {
	out := make(map[string][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range f.Members() {
		if m.Self || m.State != StateAlive || m.Addr == "" {
			continue
		}
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			_, b, err := f.call(ctx, fillTimeout, http.MethodGet, m.Addr, path, nil, Hop{})
			if err != nil {
				return
			}
			mu.Lock()
			out[m.ID] = b
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	return out
}
