// The node wire protocol's binary codec: compact framed messages for
// the coordinator↔node hot path — search requests (query + plan +
// global statistics), RES-set responses and batch ingest — reusing the
// snapshot format's varint+delta machinery and its integrity
// discipline. It is the one encoding of the node's search and ingest
// operations, over HTTP bodies and the persistent connection alike.
//
// Frame (all integers little-endian / unsigned varint):
//
//	magic    [6]byte  "DLWIRE"
//	version  byte     wire format version (currently 1)
//	kind     byte     message kind (WireKind)
//	length   uint32   payload length in bytes
//	checksum [32]byte SHA-256 of the payload
//	payload  [length]byte
//
// Payloads delta-encode oid runs (zigzag varint — RES sets are
// score-ordered, so gaps are signed) and ship scores as raw float64
// bits, so a decoded ranking is bit-identical to the encoded one and a
// remote ranking equals the local one. A statistics block is encoded
// with its stems sorted, making the bytes deterministic for a given
// Stats value.
// The block a search request carries, under every plan, is a handful of
// stems (the coordinator projects the global statistics onto the query
// before the fan-out), decoded per request.
//
// Decodes fail closed, exactly like snapshots: bad magic, an unknown
// version or kind, truncation anywhere, a flipped bit, trailing bytes
// — all yield ErrWireCorrupt (or an unsupported-version error) and
// never a partial message.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// WireVersion is the current wire format version.
const WireVersion = 1

// WireContentType is the media type a binary wire message travels
// under over HTTP; request codec negotiation happens on it via
// Content-Type / Accept.
const WireContentType = "application/x-dlsearch-wire"

// WireProtocol is the HTTP Upgrade token switching a connection to
// the persistent framed-message transport (one wire frame per RPC,
// no per-request HTTP overhead).
const WireProtocol = "dlwire"

// WireTracedHeader is the response header of a node's 101 Switching
// Protocols answer advertising that it reads WireTracedSearchRequest
// frames on the upgraded connection. A peer whose answer lacks it gets
// traced searches as HTTP bodies with the ID in X-DL-Request.
const WireTracedHeader = "X-DL-Wire-Traced"

// wireMagic identifies one framed wire message.
var wireMagic = [6]byte{'D', 'L', 'W', 'I', 'R', 'E'}

// WireHeaderLen is the fixed frame header size preceding the payload.
const WireHeaderLen = 6 + 1 + 1 + 4 + sha256.Size

// ErrWireCorrupt reports a wire message that fails integrity
// verification: bad magic, truncation, checksum mismatch, an unknown
// kind or an undecodable payload. Handlers map it to a 4xx — the
// message is never partially applied.
var ErrWireCorrupt = errors.New("persist: corrupt wire message")

// WireKind is the message kind carried in the frame header.
type WireKind byte

const (
	// WireInvalid is the zero kind; no valid frame carries it.
	WireInvalid WireKind = 0x00

	// Kinds 0x01 and 0x11 carried the retired exact top-N request and
	// response, 0x04 and 0x13 the retired statistics request and
	// response (statistics travel as GET /node/stats JSON); they stay
	// unassigned so an old peer's frame fails closed.

	// WireSearchRequest asks for a planned search: query, plan,
	// statistics.
	WireSearchRequest WireKind = 0x02
	// WireAddBatchRequest ships one partition of a document batch.
	WireAddBatchRequest WireKind = 0x03
	// WireTracedSearchRequest is WireSearchRequest carrying the
	// coordinator's request ID: the ID string, then the 0x02 payload byte
	// for byte. Sent only to a peer whose upgrade answer carried
	// WireTracedHeader.
	WireTracedSearchRequest WireKind = 0x05

	// WireSearchResponse answers WireSearchRequest with a RES set and
	// the achieved quality estimate.
	WireSearchResponse WireKind = 0x12
	// WireAck answers a request that returns no data (empty payload).
	WireAck WireKind = 0x14
	// WireError answers any request with a status code and message —
	// the persistent-connection transport's non-200.
	WireError WireKind = 0x1f
)

// maxWirePayload bounds one frame's payload; the u32 length field is
// authoritative, this is the sanity ceiling.
const maxWirePayload = math.MaxUint32

// WireBuffer accumulates exactly one framed wire message. Obtain one
// with GetWireBuffer, call one Encode method, read Bytes, and return
// it with PutWireBuffer — steady-state encoding then allocates only
// the sort scratch for statistics vocabularies.
type WireBuffer struct {
	buf  bytes.Buffer
	tmp  [binary.MaxVarintLen64]byte
	keys []string // sorted statistics vocabulary, reused
	err  error
}

var wireBufPool = sync.Pool{New: func() any { return new(WireBuffer) }}

// maxPooledWire caps the buffer capacity worth keeping in the pool; a
// one-off giant batch must not pin its footprint forever.
const maxPooledWire = 1 << 20

// GetWireBuffer returns an empty buffer from the shared pool.
func GetWireBuffer() *WireBuffer {
	b := wireBufPool.Get().(*WireBuffer)
	b.Reset()
	return b
}

// PutWireBuffer returns a buffer to the shared pool. The caller must
// not touch it (or slices from Bytes) afterwards.
func PutWireBuffer(b *WireBuffer) {
	if b != nil && b.buf.Cap() <= maxPooledWire {
		wireBufPool.Put(b)
	}
}

// Reset empties the buffer for reuse.
func (b *WireBuffer) Reset() {
	b.buf.Reset()
	b.err = nil
}

// Bytes returns the complete framed message. Valid until the next
// Reset/Encode; check Err before trusting it.
func (b *WireBuffer) Bytes() []byte { return b.buf.Bytes() }

// Len returns the framed message length in bytes.
func (b *WireBuffer) Len() int { return b.buf.Len() }

// Err reports an encoding failure (only an over-4GiB payload can
// cause one).
func (b *WireBuffer) Err() error { return b.err }

func (b *WireBuffer) begin(kind WireKind) {
	b.buf.Reset()
	b.err = nil
	var hdr [WireHeaderLen]byte
	copy(hdr[:6], wireMagic[:])
	hdr[6] = WireVersion
	hdr[7] = byte(kind)
	b.buf.Write(hdr[:])
}

func (b *WireBuffer) finish() {
	p := b.buf.Bytes()
	payload := p[WireHeaderLen:]
	if uint64(len(payload)) > maxWirePayload {
		b.err = fmt.Errorf("persist: wire payload %d bytes exceeds frame limit", len(payload))
		b.buf.Reset()
		return
	}
	binary.LittleEndian.PutUint32(p[8:12], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	copy(p[12:WireHeaderLen], sum[:])
}

func (b *WireBuffer) u(v uint64) {
	b.buf.Write(b.tmp[:binary.PutUvarint(b.tmp[:], v)])
}

// i writes a zigzag varint, so small negative values stay small.
func (b *WireBuffer) i(v int64) {
	b.u(uint64(v<<1) ^ uint64(v>>63))
}

func (b *WireBuffer) f64(v float64) {
	binary.LittleEndian.PutUint64(b.tmp[:8], math.Float64bits(v))
	b.buf.Write(b.tmp[:8])
}

func (b *WireBuffer) str(s string) {
	b.u(uint64(len(s)))
	b.buf.WriteString(s)
}

// stats encodes a statistics block with its stems sorted, so the bytes
// for a given Stats value are deterministic. The block always sits last
// in its payload, so it needs no length prefix.
func (b *WireBuffer) stats(st ir.Stats) {
	b.i(int64(st.TotalDF))
	b.i(int64(st.Docs))
	b.u(uint64(len(st.DF)))
	keys := b.keys[:0]
	for t := range st.DF {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	b.keys = keys
	for _, t := range keys {
		b.str(t)
		b.i(int64(st.DF[t]))
	}
}

func (b *WireBuffer) results(rs []ir.Result) {
	b.u(uint64(len(rs)))
	prev := int64(0)
	for _, r := range rs {
		// RES sets are score-ordered, not oid-ordered: gaps are signed.
		b.i(int64(r.Doc) - prev)
		prev = int64(r.Doc)
		b.f64(r.Score)
	}
}

// EncodeSearchRequest frames a planned search request.
func (b *WireBuffer) EncodeSearchRequest(query string, plan ir.EvalPlan, stats ir.Stats) {
	b.begin(WireSearchRequest)
	b.search(query, plan, stats)
	b.finish()
}

// EncodeTracedSearchRequest frames a planned search request carrying
// the coordinator's request ID.
func (b *WireBuffer) EncodeTracedSearchRequest(id, query string, plan ir.EvalPlan, stats ir.Stats) {
	b.begin(WireTracedSearchRequest)
	b.str(id)
	b.search(query, plan, stats)
	b.finish()
}

// search writes the search request payload both request kinds share.
func (b *WireBuffer) search(query string, plan ir.EvalPlan, stats ir.Stats) {
	b.str(query)
	b.i(int64(plan.N))
	b.i(int64(plan.Frags))
	b.i(int64(plan.Budget))
	b.f64(plan.MinQuality)
	b.stats(stats)
}

// EncodeSearchResponse frames a RES set plus the achieved quality.
func (b *WireBuffer) EncodeSearchResponse(rs []ir.Result, q ir.QualityEstimate) {
	b.begin(WireSearchResponse)
	b.f64(q.CoveredIDF)
	b.f64(q.TotalIDF)
	b.i(int64(q.FragsUsed))
	b.i(int64(q.FragsTotal))
	b.results(rs)
	b.finish()
}

// EncodeAddBatchRequest frames one partition of a document batch (the
// op-log record shape: oid, url, text).
func (b *WireBuffer) EncodeAddBatchRequest(ops []Op) {
	b.begin(WireAddBatchRequest)
	b.u(uint64(len(ops)))
	for i := range ops {
		b.u(uint64(ops[i].Doc))
		b.str(ops[i].URL)
		b.str(ops[i].Text)
	}
	b.finish()
}

// EncodeAck frames an empty success answer.
func (b *WireBuffer) EncodeAck() {
	b.begin(WireAck)
	b.finish()
}

// EncodeError frames an error answer: an HTTP-equivalent status code
// and a message.
func (b *WireBuffer) EncodeError(status int, msg string) {
	b.begin(WireError)
	b.u(uint64(status))
	b.str(msg)
	b.finish()
}

// WirePeekKind reports the kind of a framed message without verifying
// it — routing only; every Decode re-verifies the full frame.
func WirePeekKind(msg []byte) WireKind {
	if len(msg) < WireHeaderLen || !bytes.Equal(msg[:6], wireMagic[:]) {
		return WireInvalid
	}
	return WireKind(msg[7])
}

// DecodeWire verifies one framed message end to end — magic, version,
// known kind, exact length, checksum — and returns its kind and
// payload (aliasing msg). Any violation fails closed.
func DecodeWire(msg []byte) (WireKind, []byte, error) {
	if len(msg) < WireHeaderLen {
		return WireInvalid, nil, fmt.Errorf("%w: truncated header: %d bytes", ErrWireCorrupt, len(msg))
	}
	if !bytes.Equal(msg[:6], wireMagic[:]) {
		return WireInvalid, nil, fmt.Errorf("%w: bad magic", ErrWireCorrupt)
	}
	if v := msg[6]; v != WireVersion {
		return WireInvalid, nil, fmt.Errorf("persist: unsupported wire version %d (this build speaks %d)", v, WireVersion)
	}
	kind := WireKind(msg[7])
	switch kind {
	case WireSearchRequest, WireAddBatchRequest, WireTracedSearchRequest, WireSearchResponse, WireAck, WireError:
	default:
		return WireInvalid, nil, fmt.Errorf("%w: unknown kind 0x%02x", ErrWireCorrupt, byte(kind))
	}
	plen := binary.LittleEndian.Uint32(msg[8:12])
	payload := msg[WireHeaderLen:]
	if uint64(len(payload)) != uint64(plen) {
		return WireInvalid, nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrWireCorrupt, len(payload), plen)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], msg[12:WireHeaderLen]) {
		return WireInvalid, nil, fmt.Errorf("%w: checksum mismatch", ErrWireCorrupt)
	}
	return kind, payload, nil
}

// expectWire verifies msg and requires the given kind.
func expectWire(msg []byte, want WireKind) ([]byte, error) {
	kind, payload, err := DecodeWire(msg)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("%w: kind 0x%02x where 0x%02x expected", ErrWireCorrupt, byte(kind), byte(want))
	}
	return payload, nil
}

func (d *decoder) ivarint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) wireResults() []ir.Result {
	rs := make([]ir.Result, d.count(9)) // ≥ 1 delta byte + 8 score bytes each
	prev := int64(0)
	for i := range rs {
		prev += d.ivarint()
		rs[i] = ir.Result{Doc: bat.OID(prev), Score: d.f64()}
	}
	return rs
}

func (d *decoder) wireStats() ir.Stats {
	st := ir.Stats{TotalDF: int(d.ivarint()), Docs: int(d.ivarint())}
	n := d.count(2) // ≥ length byte + df byte per term
	st.DF = make(map[string]int, n)
	for i := 0; i < n; i++ {
		t := d.str()
		st.DF[t] = int(d.ivarint())
	}
	return st
}

// finish closes a payload decode: the first sticky error or trailing
// bytes fail the whole message.
func (d *decoder) finishWire() error {
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrWireCorrupt, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrWireCorrupt, len(d.buf))
	}
	return nil
}

// WireStatsCache interns the last decoded statistics block by digest:
// a request repeating the previous block's bytes gets the same map back
// without decoding it. Search requests carry their own query's stems,
// so the node does not use it; it serves callers that resend one block.
// Callers must treat returned Stats as read-only (scoring does). The
// zero value is ready.
type WireStatsCache struct {
	last atomic.Pointer[wireStatsEntry]
}

type wireStatsEntry struct {
	sum [sha256.Size]byte
	st  ir.Stats
}

// decodeStatsTail decodes the statistics block occupying the rest of
// d's payload, through cache when non-nil.
func (d *decoder) decodeStatsTail(cache *WireStatsCache) (ir.Stats, error) {
	if d.err != nil {
		return ir.Stats{}, d.err
	}
	var sum [sha256.Size]byte
	if cache != nil {
		sum = sha256.Sum256(d.buf)
		if e := cache.last.Load(); e != nil && e.sum == sum {
			d.buf = nil
			return e.st, nil
		}
	}
	st := d.wireStats()
	if err := d.finishWire(); err != nil {
		return ir.Stats{}, err
	}
	if cache != nil {
		cache.last.Store(&wireStatsEntry{sum: sum, st: st})
	}
	return st, nil
}

// DecodeSearchRequest decodes a WireSearchRequest frame. cache, when
// non-nil, interns the statistics block.
func DecodeSearchRequest(msg []byte, cache *WireStatsCache) (query string, plan ir.EvalPlan, stats ir.Stats, err error) {
	payload, err := expectWire(msg, WireSearchRequest)
	if err != nil {
		return "", ir.EvalPlan{}, ir.Stats{}, err
	}
	d := decoder{buf: payload}
	return d.search(cache)
}

// DecodeTracedSearchRequest decodes a WireTracedSearchRequest frame:
// the request ID, then what DecodeSearchRequest returns.
func DecodeTracedSearchRequest(msg []byte, cache *WireStatsCache) (id, query string, plan ir.EvalPlan, stats ir.Stats, err error) {
	payload, err := expectWire(msg, WireTracedSearchRequest)
	if err != nil {
		return "", "", ir.EvalPlan{}, ir.Stats{}, err
	}
	d := decoder{buf: payload}
	id = d.str()
	query, plan, stats, err = d.search(cache)
	if err != nil {
		return "", "", ir.EvalPlan{}, ir.Stats{}, err
	}
	return id, query, plan, stats, nil
}

// search reads the search request payload both request kinds share.
func (d *decoder) search(cache *WireStatsCache) (query string, plan ir.EvalPlan, stats ir.Stats, err error) {
	query = d.str()
	plan = ir.EvalPlan{
		N:      int(d.ivarint()),
		Frags:  int(d.ivarint()),
		Budget: int(d.ivarint()),
	}
	plan.MinQuality = d.f64()
	stats, err = d.decodeStatsTail(cache)
	if err != nil {
		return "", ir.EvalPlan{}, ir.Stats{}, err
	}
	return query, plan, stats, nil
}

// DecodeSearchResponse decodes a WireSearchResponse frame.
func DecodeSearchResponse(msg []byte) ([]ir.Result, ir.QualityEstimate, error) {
	payload, err := expectWire(msg, WireSearchResponse)
	if err != nil {
		return nil, ir.QualityEstimate{}, err
	}
	d := decoder{buf: payload}
	q := ir.QualityEstimate{
		CoveredIDF: d.f64(),
		TotalIDF:   d.f64(),
		FragsUsed:  int(d.ivarint()),
		FragsTotal: int(d.ivarint()),
	}
	rs := d.wireResults()
	if err := d.finishWire(); err != nil {
		return nil, ir.QualityEstimate{}, err
	}
	return rs, q, nil
}

// DecodeAddBatchRequest decodes a WireAddBatchRequest frame.
func DecodeAddBatchRequest(msg []byte) ([]Op, error) {
	payload, err := expectWire(msg, WireAddBatchRequest)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: payload}
	ops := make([]Op, d.count(3)) // ≥ oid byte + two length bytes each
	for i := range ops {
		ops[i] = Op{Doc: bat.OID(d.uvarint()), URL: d.str(), Text: d.str()}
	}
	if err := d.finishWire(); err != nil {
		return nil, err
	}
	return ops, nil
}

// DecodeAck verifies a WireAck frame.
func DecodeAck(msg []byte) error {
	payload, err := expectWire(msg, WireAck)
	if err != nil {
		return err
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d payload bytes in an ack", ErrWireCorrupt, len(payload))
	}
	return nil
}

// DecodeErrorPayload decodes a WireError payload (the caller routed on
// the already-verified kind).
func DecodeErrorPayload(payload []byte) (status int, msg string, err error) {
	d := decoder{buf: payload}
	status = int(d.uvarint())
	msg = d.str()
	if e := d.finishWire(); e != nil {
		return 0, "", e
	}
	return status, msg, nil
}

// ReadWireFrame reads exactly one framed message from r — the
// persistent-connection transport's unit of exchange. The frame shape
// is validated (magic, version, payload length ≤ max) before the
// payload is read, so a corrupt length cannot become an allocation
// bomb; the checksum is verified by the subsequent Decode. scratch, if
// non-nil, is reused when large enough; the returned slice is the
// frame and doubles as next call's scratch. io.EOF surfaces unchanged
// when the stream ends cleanly between frames.
func ReadWireFrame(r io.Reader, max int, scratch []byte) ([]byte, error) {
	if cap(scratch) < WireHeaderLen {
		scratch = make([]byte, WireHeaderLen, WireHeaderLen+4096)
	}
	hdr := scratch[:WireHeaderLen]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame header: %v", ErrWireCorrupt, err)
	}
	if !bytes.Equal(hdr[:6], wireMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrWireCorrupt)
	}
	if v := hdr[6]; v != WireVersion {
		return nil, fmt.Errorf("persist: unsupported wire version %d (this build speaks %d)", v, WireVersion)
	}
	plen := binary.LittleEndian.Uint32(hdr[8:12])
	if max > 0 && uint64(plen) > uint64(max) {
		return nil, fmt.Errorf("%w: %d-byte payload exceeds the %d-byte frame cap", ErrWireCorrupt, plen, max)
	}
	total := WireHeaderLen + int(plen)
	frame := scratch
	if cap(frame) < total {
		frame = make([]byte, total)
		copy(frame, hdr)
	}
	frame = frame[:total]
	if _, err := io.ReadFull(r, frame[WireHeaderLen:]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame payload: %v", ErrWireCorrupt, err)
	}
	return frame, nil
}
