package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"dlsearch/internal/persist"
)

// The persistent-connection transport: the hot node RPCs (planned
// search, batch ingest) ride long-lived TCP connections speaking framed
// persist wire messages — one frame out,
// one frame back per RPC — negotiated by upgrading an ordinary HTTP
// request (GET /node/wire, Upgrade: dlwire). A peer that cannot be
// reached this way (a proxy that strips Upgrade, say) refuses the
// upgrade once and the RemoteNode sends the same frames as HTTP bodies
// to that peer from then on. A traced search rides the connection as a
// WireTracedSearchRequest frame when the peer's upgrade answer
// advertised it (persist.WireTracedHeader); a peer from an older build
// gets that one search as an HTTP body with the X-DL-Request header.

// errWireUnsupported reports a peer that refused the upgrade; the
// caller sends the frame as an HTTP body instead, and the pool
// remembers.
var errWireUnsupported = errors.New("dist: peer does not speak the persistent wire transport")

// errWireUntraced reports a connection whose peer did not advertise
// traced frames, met by a request that must deliver its request ID; the
// caller sends that request as an HTTP body.
var errWireUntraced = errors.New("dist: peer does not read traced wire frames")

const (
	// maxWireResponse caps one response frame read from a node — far
	// above any real RES set, low enough that a corrupt length field
	// cannot balloon memory.
	maxWireResponse = 1 << 26
	// maxIdleWireConns is how many idle upgraded connections a
	// RemoteNode keeps per node; concurrency above it dials extra
	// connections that close after use.
	maxIdleWireConns = 8
	// wireDialTimeout bounds the dial+upgrade handshake when the
	// caller's context carries no deadline.
	wireDialTimeout = 10 * time.Second
)

// wirePool maintains the idle upgraded connections to one node.
type wirePool struct {
	host string // host:port to dial
	base string // node base URL, for error text

	mu   sync.Mutex
	idle []*wireConn

	// unsupported sticks after a definitive upgrade refusal: the peer
	// will not start speaking dlwire until it restarts, and when it
	// restarts the process likely replaced this client too.
	unsupported bool
}

func newWirePool(base string) *wirePool {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		// Only plain TCP upgrades; https peers use HTTP binary.
		return nil
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	return &wirePool{host: host, base: base}
}

// wireConn is one upgraded connection: the raw conn, its buffered
// reader (owns bytes buffered during the upgrade), the reusable frame
// scratch, and whether the peer's upgrade answer advertised traced
// search frames.
type wireConn struct {
	c      net.Conn
	br     *bufio.Reader
	frame  []byte
	traced bool
}

func (wc *wireConn) close() { wc.c.Close() }

// get pops an idle connection or dials a fresh one. fromPool tells
// the caller whether a failure may just be a stale idle connection
// (worth one retry) rather than a live fault.
func (p *wirePool) get(ctx context.Context) (wc *wireConn, fromPool bool, err error) {
	p.mu.Lock()
	if p.unsupported {
		p.mu.Unlock()
		return nil, false, errWireUnsupported
	}
	if n := len(p.idle); n > 0 {
		wc = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return wc, true, nil
	}
	p.mu.Unlock()
	wc, err = p.dial(ctx)
	return wc, false, err
}

func (p *wirePool) put(wc *wireConn) {
	p.mu.Lock()
	if !p.unsupported && len(p.idle) < maxIdleWireConns {
		p.idle = append(p.idle, wc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	wc.close()
}

// closeIdle drops every pooled connection (used when the codec is
// switched away from CodecWire).
func (p *wirePool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, wc := range idle {
		wc.close()
	}
}

// isUnsupported reports whether the peer definitively refused the
// upgrade.
func (p *wirePool) isUnsupported() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unsupported
}

func (p *wirePool) markUnsupported() {
	p.mu.Lock()
	p.unsupported = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, wc := range idle {
		wc.close()
	}
}

// dial opens a TCP connection and upgrades it to the wire transport.
// A refusal that is definitive (the endpoint is missing, or answers
// anything but 101 except a transient 503) marks the pool unsupported.
func (p *wirePool) dial(ctx context.Context) (*wireConn, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wireDialTimeout)
		defer cancel()
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", p.host)
	if err != nil {
		return nil, fmt.Errorf("dist: node %s: %w", p.base, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		c.SetDeadline(dl)
	}
	if _, err := io.WriteString(c, "GET "+PathNodeWire+" HTTP/1.1\r\nHost: "+p.host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+persist.WireProtocol+"\r\n\r\n"); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: node %s: upgrade: %w", p.base, err)
	}
	br := bufio.NewReaderSize(c, 4096)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: node %s: upgrade: %w", p.base, err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		c.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			// At its connection cap — transient, do not write the peer off.
			return nil, fmt.Errorf("dist: node %s: upgrade refused: status %d", p.base, resp.StatusCode)
		}
		p.markUnsupported()
		return nil, fmt.Errorf("%w (node %s answered %d to the upgrade)", errWireUnsupported, p.base, resp.StatusCode)
	}
	resp.Body.Close()
	c.SetDeadline(time.Time{})
	// Bytes the response read buffered beyond the 101 belong to the
	// frame stream, so the same reader carries over.
	return &wireConn{c: c, br: br, traced: resp.Header.Get(persist.WireTracedHeader) != ""}, nil
}

// connRPC runs one framed RPC over the node's persistent-connection
// transport: frame the request into wb for the connection at hand,
// write it, read one response frame, hand it to handle (which must copy
// anything it keeps). The frame kind is chosen per connection: a
// request ID travels in the frame only to a peer that advertised it,
// and any other peer's connection goes back to the pool unused while
// the call reports errWireUntraced. A stale idle connection (closed by
// the peer while pooled) earns one retry on a fresh dial; an error
// after any response byte is terminal.
func (rn *RemoteNode) connRPC(ctx context.Context, path, id string, wb *persist.WireBuffer, encode frameFunc, handle func(frame []byte) error) error {
	deadline := time.Now().Add(rn.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for attempt := 0; ; attempt++ {
		wc, fromPool, err := rn.pool.get(ctx)
		if err != nil {
			return err
		}
		if id != "" && !wc.traced {
			rn.pool.put(wc)
			return errWireUntraced
		}
		encode(wb, id)
		if err := wb.Err(); err != nil {
			rn.pool.put(wc)
			return fmt.Errorf("dist: encode %s: %w", path, err)
		}
		gotResponse, err := rn.connExchange(wc, deadline, path, wb.Bytes(), handle)
		if err == nil {
			rn.pool.put(wc)
			return nil
		}
		wc.close()
		if fromPool && !gotResponse && attempt == 0 && ctx.Err() == nil {
			continue // stale pooled connection; one fresh dial
		}
		return err
	}
}

func (rn *RemoteNode) connExchange(wc *wireConn, deadline time.Time, path string, frame []byte, handle func([]byte) error) (gotResponse bool, err error) {
	wc.c.SetDeadline(deadline)
	if _, err := wc.c.Write(frame); err != nil {
		return false, fmt.Errorf("dist: node %s%s: %w", rn.base, path, err)
	}
	rn.bytesOut.Add(uint64(len(frame)))
	if rn.met != nil {
		rn.met.BytesOut.Add(uint64(len(frame)))
	}
	resp, err := persist.ReadWireFrame(wc.br, maxWireResponse, wc.frame)
	if err != nil {
		return wc.br.Buffered() > 0, fmt.Errorf("dist: node %s%s: %w", rn.base, path, err)
	}
	wc.frame = resp
	rn.bytesIn.Add(uint64(len(resp)))
	if rn.met != nil {
		rn.met.BytesIn.Add(uint64(len(resp)))
	}
	if persist.WirePeekKind(resp) == persist.WireError {
		_, payload, derr := persist.DecodeWire(resp)
		if derr != nil {
			return true, fmt.Errorf("dist: node %s%s: %w", rn.base, path, derr)
		}
		status, msg, derr := persist.DecodeErrorPayload(payload)
		if derr != nil {
			return true, fmt.Errorf("dist: node %s%s: %w", rn.base, path, derr)
		}
		return true, fmt.Errorf("dist: node %s%s: status %d: %s", rn.base, path, status, msg)
	}
	if err := handle(resp); err != nil {
		return true, fmt.Errorf("dist: node %s%s: %w", rn.base, path, err)
	}
	return true, nil
}
