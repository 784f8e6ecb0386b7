// Cache handoff: the export/import pair that lets a cluster move a
// peer's hot result-cache entries to another peer during membership
// changes (join prewarm, coordinated drain — see internal/cluster).
//
// Safety rests on content addressing. An exported line carries the
// wire-form request, the response body exactly as the exporter serves
// it, and the canonical key the entry was stored under; the importer
// re-validates the request against its own limits, re-derives the
// canonical key, and refuses any line whose key does not match — so a
// corrupt, truncated, or maliciously altered line can only be dropped,
// never poison the receiving cache. The response is additionally
// strictly decoded, round-tripped through this process's own JSON
// encoding and byte-compared, so an import can never introduce a
// serving that differs byte-for-byte from what the exporter served. A
// line from a version whose Response has a field this one lacks fails
// the strict decode: a mixed-version handoff loses hit rate, never
// correctness.
//
// Both endpoints stay up during drain: export is exactly what a
// draining peer must keep answering while its entries stream out, and
// import is how a joining peer warms before it serves.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"loggpsim/internal/resultcache"
)

// cached is one result-cache value: the encoded 200 body plus the
// wire-form request bytes it answers. A hit writes body verbatim. The
// request is captured before evaluation (which mutates it) so handoff
// export can hand the receiving peer everything it needs to re-derive —
// and therefore re-verify — the canonical key. The entry is charged
// len(body)+len(req) bytes.
type cached struct {
	body []byte // the response as served: JSON plus a trailing newline
	req  []byte // compact wire-form request JSON
}

// handoffLine is one NDJSON line of a cache export stream.
type handoffLine struct {
	// Key is the canonical content address (hex), as stored by the
	// exporter and re-derived by the importer.
	Key string `json:"key"`
	// Request is the wire-form request; Response the non-degraded 200
	// body it produced, as served (JSON encoding drops the trailing
	// newline inside the line).
	Request  json.RawMessage `json:"request"`
	Response json.RawMessage `json:"response"`
	// Cost is the recomputation cost the entry was priced at, preserved
	// so the receiving cache's cost-aware eviction keeps valuing it
	// correctly.
	Cost float64 `json:"cost"`
}

// importResult is the POST /cache/import response body.
type importResult struct {
	Imported int `json:"imported"`
	Rejected int `json:"rejected"`
}

// maxImportBytes caps one import request body. Handoff callers batch
// well below this; the cap exists so a hostile body cannot make the
// server buffer unboundedly.
const maxImportBytes = 64 << 20

// handleCacheExport streams the cache's entries as NDJSON in
// resultcache.Export order (every shard's hottest first), optionally
// capped by ?limit=N. Each line's response is the stored body; nothing
// is re-encoded. Deliberately served during drain.
func (s *Server) handleCacheExport(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cache == nil {
		s.fail(w, http.StatusNotFound, "result cache disabled")
		return
	}
	limit := 0
	if q := hr.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "bad limit %q", q)
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range s.cache.Export(limit) {
		line := handoffLine{
			Key:      e.Key.String(),
			Request:  e.Val.req,
			Response: e.Val.body,
			Cost:     e.Cost,
		}
		if err := enc.Encode(&line); err != nil {
			return // client went away mid-stream
		}
	}
}

// handleCacheImport ingests an export stream, verifying every line
// before storing it (see the package comment for the invariants). The
// response reports how many lines were imported and how many rejected;
// a malformed stream fails the whole request. Deliberately served
// during drain.
func (s *Server) handleCacheImport(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cache == nil {
		s.fail(w, http.StatusNotFound, "result cache disabled")
		return
	}
	hr.Body = http.MaxBytesReader(w, hr.Body, maxImportBytes)
	dec := json.NewDecoder(hr.Body)
	var res importResult
	for {
		var line handoffLine
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
				return
			}
			s.fail(w, http.StatusBadRequest, "bad import stream: %v", err)
			return
		}
		if s.importLine(&line) {
			res.Imported++
		} else {
			res.Rejected++
		}
	}
	writeJSON(w, http.StatusOK, res)
}

// importLine verifies and stores one exported entry, reporting whether
// it was accepted. Every rejection path is a refusal to store — the
// cache is never touched by a line that fails any check.
func (s *Server) importLine(line *handoffLine) bool {
	// The request must decode strictly, satisfy this server's own
	// limits, and hash to exactly the key the line claims. A mismatched
	// key means the line does not address what it says it does.
	req, err := DecodeRequest(bytes.NewReader(line.Request), s.cfg.Limits)
	if err != nil {
		return false
	}
	key, err := CanonicalKey(&req)
	if err != nil || key.String() != line.Key {
		return false
	}
	// The response must decode strictly, must not be a degraded outcome
	// (those are never cached, so never imported), and must survive a
	// re-marshal byte-identically. The re-marshaled bytes, which the
	// check proved equal to the line's, are what gets stored and served.
	var resp Response
	pd := json.NewDecoder(bytes.NewReader(line.Response))
	pd.DisallowUnknownFields()
	if err := pd.Decode(&resp); err != nil {
		return false
	}
	if resp.Degraded {
		return false
	}
	remarshal, err := json.Marshal(&resp)
	if err != nil {
		return false
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, line.Response); err != nil {
		return false
	}
	if !bytes.Equal(remarshal, compact.Bytes()) {
		return false
	}
	var reqCompact bytes.Buffer
	if err := json.Compact(&reqCompact, line.Request); err != nil {
		return false
	}
	body := append(remarshal, '\n')
	s.cache.Put(key, cached{body: body, req: reqCompact.Bytes()}, resultcache.Meta{
		Size:  len(body) + reqCompact.Len(),
		Cost:  line.Cost,
		Store: true,
	})
	return true
}
