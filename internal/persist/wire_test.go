package persist

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// wireTestStats is a small but non-trivial statistics block.
func wireTestStats() ir.Stats {
	return ir.Stats{
		DF:      map[string]int{"melbourne": 3, "champion": 17, "ace": 1},
		TotalDF: 21,
		Docs:    400,
	}
}

// wireTestResults is a RES set in score order with oids that are not
// monotone, exercising the signed-delta encoding.
func wireTestResults() []ir.Result {
	return []ir.Result{
		{Doc: 42, Score: 0.91},
		{Doc: 7, Score: 0.5},
		{Doc: 1000000, Score: 0.25},
		{Doc: 999999, Score: math.SmallestNonzeroFloat64},
		{Doc: 3, Score: 0},
	}
}

// wireMessages returns one encoded frame of every message kind,
// paired with a decoder that must fail closed on any mutation.
func wireMessages(t *testing.T) map[string]struct {
	msg    []byte
	decode func([]byte) error
} {
	t.Helper()
	enc := func(f func(b *WireBuffer)) []byte {
		b := GetWireBuffer()
		defer PutWireBuffer(b)
		f(b)
		if err := b.Err(); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return append([]byte(nil), b.Bytes()...)
	}
	stats, rs := wireTestStats(), wireTestResults()
	plan := ir.EvalPlan{N: 10, Frags: 8, Budget: 3, MinQuality: 0.75}
	q := ir.QualityEstimate{CoveredIDF: 1.5, TotalIDF: 2.5, FragsUsed: 3, FragsTotal: 8}
	ops := []Op{
		{Doc: 1, URL: "u1", Text: "melbourne champion"},
		{Doc: 2, Text: "ace"},
	}
	return map[string]struct {
		msg    []byte
		decode func([]byte) error
	}{
		"search-request": {
			enc(func(b *WireBuffer) { b.EncodeSearchRequest("champion", plan, stats) }),
			func(m []byte) error { _, _, _, err := DecodeSearchRequest(m, nil); return err },
		},
		"traced-search-request": {
			enc(func(b *WireBuffer) { b.EncodeTracedSearchRequest("3dcc9328f078fc1b", "champion", plan, stats) }),
			func(m []byte) error { _, _, _, _, err := DecodeTracedSearchRequest(m, nil); return err },
		},
		"search-response": {
			enc(func(b *WireBuffer) { b.EncodeSearchResponse(rs, q) }),
			func(m []byte) error { _, _, err := DecodeSearchResponse(m); return err },
		},
		"addbatch-request": {
			enc(func(b *WireBuffer) { b.EncodeAddBatchRequest(ops) }),
			func(m []byte) error { _, err := DecodeAddBatchRequest(m); return err },
		},
		"ack": {
			enc(func(b *WireBuffer) { b.EncodeAck() }),
			func(m []byte) error { return DecodeAck(m) },
		},
		"error": {
			enc(func(b *WireBuffer) { b.EncodeError(503, "at capacity") }),
			func(m []byte) error {
				kind, payload, err := DecodeWire(m)
				if err != nil {
					return err
				}
				if kind != WireError {
					return ErrWireCorrupt
				}
				_, _, err = DecodeErrorPayload(payload)
				return err
			},
		},
	}
}

// TestWireRoundTrip: every message kind decodes back to exactly what
// was encoded — oids, float-bit-exact scores, statistics, plans.
func TestWireRoundTrip(t *testing.T) {
	stats, rs := wireTestStats(), wireTestResults()

	b := GetWireBuffer()
	defer PutWireBuffer(b)

	plan := ir.EvalPlan{N: 10, Frags: 8, Budget: 3, MinQuality: 0.75}
	b.EncodeSearchRequest("champion", plan, stats)
	query, gotPlan, st, err := DecodeSearchRequest(append([]byte(nil), b.Bytes()...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if query != "champion" || gotPlan != plan || !reflect.DeepEqual(st, stats) {
		t.Fatalf("search request round trip: %q %+v %+v", query, gotPlan, st)
	}

	// The traced kind carries the request ID, then the plain kind's
	// payload byte for byte.
	plain := append([]byte(nil), b.Bytes()...)
	b.EncodeTracedSearchRequest("3dcc9328f078fc1b", "champion", plan, stats)
	id, query, gotPlan, st, err := DecodeTracedSearchRequest(append([]byte(nil), b.Bytes()...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != "3dcc9328f078fc1b" || query != "champion" || gotPlan != plan || !reflect.DeepEqual(st, stats) {
		t.Fatalf("traced search request round trip: %q %q %+v %+v", id, query, gotPlan, st)
	}
	if traced := b.Bytes()[WireHeaderLen:]; !bytes.Equal(traced[1+len(id):], plain[WireHeaderLen:]) || traced[0] != byte(len(id)) {
		t.Fatalf("traced payload is not the ID followed by the plain payload:\n%x\n%x", traced, plain[WireHeaderLen:])
	}
	b.EncodeTracedSearchRequest("", "", ir.EvalPlan{}, ir.Stats{})
	if id, _, _, st, err := DecodeTracedSearchRequest(b.Bytes(), nil); err != nil || id != "" || len(st.DF) != 0 {
		t.Fatalf("empty traced request: %q %+v %v", id, st, err)
	}

	q := ir.QualityEstimate{CoveredIDF: 1.5, TotalIDF: 2.5, FragsUsed: 3, FragsTotal: 8}
	b.EncodeSearchResponse(rs, q)
	got, gotQ, err := DecodeSearchResponse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) || gotQ != q {
		t.Fatalf("search response round trip: %+v %+v", got, gotQ)
	}

	ops := []Op{
		{Doc: 1, URL: "u1", Text: "melbourne champion"},
		{Doc: 2, Text: "ace"},
	}
	b.EncodeAddBatchRequest(ops)
	gotOps, err := DecodeAddBatchRequest(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOps) != len(ops) {
		t.Fatalf("%d ops, want %d", len(gotOps), len(ops))
	}
	for i := range ops {
		if gotOps[i].Doc != ops[i].Doc || gotOps[i].URL != ops[i].URL || gotOps[i].Text != ops[i].Text {
			t.Fatalf("op %d = %+v, want %+v", i, gotOps[i], ops[i])
		}
	}

	b.EncodeError(503, "at capacity")
	kind, payload, err := DecodeWire(b.Bytes())
	if err != nil || kind != WireError {
		t.Fatalf("error frame: kind %#x err %v", kind, err)
	}
	status, msg, err := DecodeErrorPayload(payload)
	if err != nil || status != 503 || msg != "at capacity" {
		t.Fatalf("error payload: %d %q %v", status, msg, err)
	}

	// The empty-payload kind.
	b.EncodeAck()
	if err := DecodeAck(b.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Zero-value edge cases.
	b.EncodeSearchResponse(nil, ir.QualityEstimate{})
	if got, gotQ, err := DecodeSearchResponse(b.Bytes()); err != nil || len(got) != 0 || gotQ != (ir.QualityEstimate{}) {
		t.Fatalf("empty results: %v %+v %v", got, gotQ, err)
	}
	b.EncodeSearchRequest("", ir.EvalPlan{}, ir.Stats{})
	if _, _, st, err := DecodeSearchRequest(b.Bytes(), nil); err != nil || st.Docs != 0 || len(st.DF) != 0 {
		t.Fatalf("empty stats: %+v %v", st, err)
	}
}

// TestWireTruncationFailsClosed: a frame cut at ANY byte boundary is
// rejected — no prefix of a valid message is itself a valid message,
// and no decode ever panics or partially succeeds.
func TestWireTruncationFailsClosed(t *testing.T) {
	for name, m := range wireMessages(t) {
		for i := 0; i < len(m.msg); i++ {
			if err := m.decode(m.msg[:i]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded successfully", name, i, len(m.msg))
			}
		}
	}
}

// TestWireBitFlipsFailClosed: flipping any single bit anywhere in a
// frame — header or payload — is detected. The payload is covered by
// the checksum; the header fields are validated field by field.
func TestWireBitFlipsFailClosed(t *testing.T) {
	for name, m := range wireMessages(t) {
		corrupted := make([]byte, len(m.msg))
		for i := 0; i < len(m.msg); i++ {
			for bit := 0; bit < 8; bit++ {
				copy(corrupted, m.msg)
				corrupted[i] ^= 1 << bit
				if err := m.decode(corrupted); err == nil {
					t.Fatalf("%s with bit %d of byte %d flipped decoded successfully", name, bit, i)
				}
			}
		}
	}
}

// TestWireTrailingBytesFailClosed: bytes after the framed length are
// corruption, not padding.
func TestWireTrailingBytesFailClosed(t *testing.T) {
	for name, m := range wireMessages(t) {
		grown := append(append([]byte(nil), m.msg...), 0)
		if err := m.decode(grown); err == nil {
			t.Fatalf("%s with a trailing byte decoded successfully", name)
		}
	}
}

// TestWireVersionAndKind: future versions and unknown kinds are
// rejected up front; typed decoders reject the wrong kind even when
// the frame itself verifies.
func TestWireVersionAndKind(t *testing.T) {
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	b.EncodeAck()
	msg := append([]byte(nil), b.Bytes()...)

	bad := append([]byte(nil), msg...)
	bad[6] = WireVersion + 1 // version byte follows the 6-byte magic
	if _, _, err := DecodeWire(bad); err == nil {
		t.Fatal("future version accepted")
	}

	// A verified Ack handed to every OTHER typed decoder must be
	// refused by kind, not misparsed.
	if _, _, err := DecodeSearchResponse(msg); err == nil {
		t.Fatal("ack accepted as search response")
	}
	if _, _, _, err := DecodeSearchRequest(msg, nil); err == nil {
		t.Fatal("ack accepted as search request")
	}

	// The two search request kinds are not interchangeable: a traced
	// frame handed to the plain decoder (a node that does not route on
	// the kind) fails closed, and so does the converse.
	b.EncodeTracedSearchRequest("3dcc9328f078fc1b", "champion", ir.EvalPlan{N: 5}, wireTestStats())
	if _, _, _, err := DecodeSearchRequest(b.Bytes(), nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("traced request accepted as plain search request: %v", err)
	}
	b.EncodeSearchRequest("champion", ir.EvalPlan{N: 5}, wireTestStats())
	if _, _, _, _, err := DecodeTracedSearchRequest(b.Bytes(), nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("plain request accepted as traced search request: %v", err)
	}

	// The retired exact top-N kinds (0x01 request, 0x11 response), the
	// retired statistics kinds (0x04 request, 0x13 response) and
	// never-assigned ones are unknown: a frame from an old peer that
	// verifies in every other respect is still rejected.
	for _, old := range retiredFrames(t) {
		if _, _, err := DecodeWire(old); !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("retired kind 0x%02x: err = %v, want ErrWireCorrupt", old[7], err)
		}
	}
	unknown := append([]byte(nil), msg...)
	unknown[7] = 0x7e
	if _, _, err := DecodeWire(unknown); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("unassigned kind: err = %v, want ErrWireCorrupt", err)
	}
}

// TestWireStatsCacheInterns: two requests carrying byte-identical
// statistics blocks decode to the SAME map (interned by digest), and a
// changed block misses the cache and re-decodes.
func TestWireStatsCacheInterns(t *testing.T) {
	var cache WireStatsCache
	b := GetWireBuffer()
	defer PutWireBuffer(b)

	st := wireTestStats()
	b.EncodeSearchRequest("q", ir.EvalPlan{N: 5}, st)
	msg := append([]byte(nil), b.Bytes()...)
	_, _, first, err := DecodeSearchRequest(msg, &cache)
	if err != nil {
		t.Fatal(err)
	}
	_, _, second, err := DecodeSearchRequest(msg, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("interned stats differ: %+v vs %+v", first, second)
	}
	if reflect.ValueOf(first.DF).Pointer() != reflect.ValueOf(second.DF).Pointer() {
		t.Fatal("identical stats blocks were not interned")
	}

	st.DF["newterm"] = 9
	st.TotalDF += 9
	b.EncodeSearchRequest("q", ir.EvalPlan{N: 5}, st)
	_, _, third, err := DecodeSearchRequest(b.Bytes(), &cache)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first.DF).Pointer() == reflect.ValueOf(third.DF).Pointer() {
		t.Fatal("changed stats block wrongly served from cache")
	}
	if third.DF["newterm"] != 9 {
		t.Fatalf("changed stats decoded wrong: %+v", third)
	}
}

// TestReadWireFrame: the streaming reader returns whole frames from a
// concatenated stream, reports a clean EOF between frames, and
// rejects truncated headers, foreign bytes and oversized lengths.
func TestReadWireFrame(t *testing.T) {
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	var stream bytes.Buffer
	b.EncodeAck()
	ack := append([]byte(nil), b.Bytes()...)
	stream.Write(ack)
	b.EncodeError(400, "nope")
	errMsg := append([]byte(nil), b.Bytes()...)
	stream.Write(errMsg)

	var scratch []byte
	f1, err := ReadWireFrame(&stream, 1<<20, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, ack) {
		t.Fatal("first frame mismatch")
	}
	f2, err := ReadWireFrame(&stream, 1<<20, f1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2, errMsg) {
		t.Fatal("second frame mismatch")
	}
	if _, err := ReadWireFrame(&stream, 1<<20, f2); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// A header cut mid-way is not a clean EOF.
	if _, err := ReadWireFrame(bytes.NewReader(ack[:10]), 1<<20, nil); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated header: %v", err)
	}
	// Garbage where the magic should be.
	if _, err := ReadWireFrame(bytes.NewReader([]byte("GET /node/wire HTTP/1.1\r\n\r\n padding padding padding")), 1<<20, nil); err == nil {
		t.Fatal("foreign bytes accepted as a frame")
	}
	// A declared payload above the cap is refused before any payload
	// read — the allocation-bomb guard.
	big := append([]byte(nil), ack...)
	big[8], big[9], big[10], big[11] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadWireFrame(bytes.NewReader(big), 1<<10, nil); err == nil {
		t.Fatal("oversized declared length accepted")
	}
}

// TestWireResultsDelta: oid runs that stress the signed delta paths —
// ascending, descending, huge jumps — survive bit-exact.
func TestWireResultsDelta(t *testing.T) {
	cases := [][]ir.Result{
		{{Doc: 1, Score: 1}, {Doc: 2, Score: 0.5}, {Doc: 3, Score: 0.25}},
		{{Doc: 3, Score: 1}, {Doc: 2, Score: 0.5}, {Doc: 1, Score: 0.25}},
		{{Doc: bat.OID(math.MaxUint32), Score: 1}, {Doc: 1, Score: 0.5}, {Doc: bat.OID(math.MaxUint32) - 1, Score: 0.1}},
	}
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	for i, rs := range cases {
		b.EncodeSearchResponse(rs, ir.QualityEstimate{})
		got, _, err := DecodeSearchResponse(b.Bytes())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("case %d: %+v, want %+v", i, got, rs)
		}
	}
}

// FuzzWireDecode: no input, however mangled, may panic or decode
// partially — every decoder either succeeds on a well-formed frame or
// returns an error.
func FuzzWireDecode(f *testing.F) {
	b := GetWireBuffer()
	b.EncodeSearchRequest("champion ace", ir.EvalPlan{N: 10, Budget: 2}, wireTestStats())
	f.Add(append([]byte(nil), b.Bytes()...))
	b.EncodeTracedSearchRequest("3dcc9328f078fc1b", "champion ace", ir.EvalPlan{N: 10, Budget: 2}, wireTestStats())
	f.Add(append([]byte(nil), b.Bytes()...))
	b.EncodeSearchResponse(wireTestResults(), ir.QualityEstimate{CoveredIDF: 1, TotalIDF: 2, FragsUsed: 1, FragsTotal: 4})
	f.Add(append([]byte(nil), b.Bytes()...))
	f.Add(retiredTopNRequest(f))
	f.Add(retiredTopNResponse(f))
	b.EncodeAddBatchRequest([]Op{{Doc: 1, Text: "t"}})
	f.Add(append([]byte(nil), b.Bytes()...))
	b.EncodeAck()
	f.Add(append([]byte(nil), b.Bytes()...))
	PutWireBuffer(b)
	f.Add([]byte("DLWIRE"))
	f.Add([]byte{})
	f.Add(retiredStatsRequest(f))
	f.Add(retiredStatsResponse(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cache WireStatsCache
		DecodeWire(data)
		DecodeSearchRequest(data, &cache)
		DecodeTracedSearchRequest(data, &cache)
		DecodeSearchResponse(data)
		DecodeAddBatchRequest(data)
		DecodeAck(data)
		if kind, payload, err := DecodeWire(data); err == nil && kind == WireError {
			DecodeErrorPayload(payload)
		}
		ReadWireFrame(bytes.NewReader(data), 1<<16, nil)
	})
}

// unhex decodes a frame captured as a hex literal.
func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The retired exact top-N frames, exactly as the last build that spoke
// them encoded ("q", n=5, empty statistics; an empty RES set): valid
// magic, version, length and checksum, so only the kind byte can
// reject them.
func retiredTopNRequest(t testing.TB) []byte {
	return unhex(t, "444c57495245010106000000f9a8505491cc595111fa504773eb232d8ff2d55b965eb636ea4abd09373650b901710a000000")
}

func retiredTopNResponse(t testing.TB) []byte {
	return unhex(t, "444c574952450111010000006e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d00")
}

// The retired statistics frames, exactly as the last build that spoke
// them encoded (an empty request; ace=3 champion=7 serv=11, TotalDF 21,
// Docs 9): an old coordinator may still send the request to a new node.
func retiredStatsRequest(t testing.TB) []byte {
	return unhex(t, "444c57495245010400000000e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
}

func retiredStatsResponse(t testing.TB) []byte {
	return unhex(t, "444c57495245011318000000f6ce36959cbe01b2eba7316abe49fb3d150f9f2b91b2de526a18067b735ea3192a12030361636506086368616d70696f6e0e047365727616")
}

// retiredFrames is every retired frame above.
func retiredFrames(t testing.TB) [][]byte {
	return [][]byte{retiredTopNRequest(t), retiredTopNResponse(t), retiredStatsRequest(t), retiredStatsResponse(t)}
}

// TestWireGoldenFrames pins the surviving frames to the bytes the
// parent of the top-N retirement produced for the same values: kinds
// were not renumbered, payload layouts did not move, and WireVersion
// did not need a bump. The traced search request, added later under the
// same version, is pinned from the build that introduced it. A
// deliberate format change updates these literals AND the version.
func TestWireGoldenFrames(t *testing.T) {
	if WireVersion != 1 {
		t.Fatalf("WireVersion = %d: re-capture the golden frames below", WireVersion)
	}
	stats := ir.Stats{DF: map[string]int{"ace": 3, "champion": 7, "serv": 11}, TotalDF: 21, Docs: 9}
	rs := []ir.Result{{Doc: 7, Score: 1.5}, {Doc: 2, Score: 0.75}, {Doc: 40, Score: 0.125}}
	q := ir.QualityEstimate{CoveredIDF: 1.25, TotalIDF: 2.5, FragsUsed: 2, FragsTotal: 8}
	ops := []Op{{Doc: 1, URL: "u1", Text: "melbourne champion"}, {Doc: 3, Text: "ace"}}
	for _, tc := range []struct {
		name   string
		encode func(*WireBuffer)
		want   string
	}{
		{"search request",
			func(b *WireBuffer) {
				b.EncodeSearchRequest("champion ace", ir.EvalPlan{N: 10, Frags: 8, Budget: 2, MinQuality: 0.5}, stats)
			},
			"444c5749524501023000000039d847ed3df0ddba642e5e2785aec435e0feb47d060e6be5b3ebb107b06ea7690c6368616d70696f6e20616365141004000000000000e03f2a12030361636506086368616d70696f6e0e047365727616"},
		{"search response",
			func(b *WireBuffer) { b.EncodeSearchResponse(rs, q) },
			"444c5749524501122e000000f327086cdc0755e8043388194baf59a2ae4400d5a59afff91c71d6e579499670000000000000f43f00000000000004400410030e000000000000f83f09000000000000e83f4c000000000000c03f"},
		{"add-batch request",
			func(b *WireBuffer) { b.EncodeAddBatchRequest(ops) },
			"444c5749524501031e000000b755dcd14f6dd8c8fc956a498786183efb4ac1916c13598e15ffe4dc377e544c0201027531126d656c626f75726e65206368616d70696f6e030003616365"},
		{"ack",
			func(b *WireBuffer) { b.EncodeAck() },
			"444c57495245011400000000e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"traced search request",
			func(b *WireBuffer) {
				b.EncodeTracedSearchRequest("3dcc9328f078fc1b", "champion ace", ir.EvalPlan{N: 10, Frags: 8, Budget: 2, MinQuality: 0.5}, stats)
			},
			"444c5749524501054100000006d8ce2a2c4b3c4d8684dc4f5af19f4c971f8d73d30a01353d3459018614a42610336463633933323866303738666331620c6368616d70696f6e20616365141004000000000000e03f2a12030361636506086368616d70696f6e0e047365727616"},
	} {
		b := GetWireBuffer()
		tc.encode(b)
		if got := hex.EncodeToString(b.Bytes()); got != tc.want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		PutWireBuffer(b)
	}
}
