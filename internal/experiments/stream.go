package experiments

// Streaming result codecs: JSON-lines and CSV forms of PointResult.
//
// Both codecs are canonical after one decode/encode cycle: for any bytes
// the reader accepts, encode(decode(x)) is a fixed point — re-decoding
// and re-encoding it reproduces the same bytes. The fuzz targets in
// fuzz_test.go enforce this, and the resumable-campaign workflow rests
// on it (a campaign's JSONL prefix re-read from disk feeds
// RunOptions.Completed verbatim).
//
// The JSONL encoder is hand-rolled rather than json.Marshal: PointResult
// is flat and a campaign emits one line per grid point, so the encoder
// appends into a caller-owned (or pooled) buffer and allocates nothing
// in steady state. Its output is byte-for-byte what json.Marshal would
// produce — same field order, sorted sched keys, Go's JSON float
// formatting, HTML-escaped strings — which TestAppendPointResultMatchesMarshal
// pins, so golden fixtures and resumed streams are unaffected.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jsonwire"
)

// encState is the reusable scratch of one JSONL encode: the output
// buffer and the sched-key sort slice.
type encState struct {
	buf  []byte
	keys []string
}

var encPool = sync.Pool{New: func() any { return new(encState) }}

// WritePointResult writes one result as a compact JSON line.
func WritePointResult(w io.Writer, r PointResult) error {
	st := encPool.Get().(*encState)
	defer encPool.Put(st)
	var err error
	if st.buf, err = st.appendPointResult(st.buf[:0], r); err != nil {
		return err
	}
	_, err = w.Write(st.buf)
	return err
}

// appendPointResult appends r's compact JSON encoding plus '\n' to buf,
// byte-identical to json.Marshal of PointResult.
func (st *encState) appendPointResult(buf []byte, r PointResult) ([]byte, error) {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(r.Index), 10)
	buf = append(buf, `,"scenario":`...)
	buf = jsonwire.AppendString(buf, r.Scenario)
	buf = append(buf, `,"m":`...)
	buf = strconv.AppendInt(buf, int64(r.M), 10)
	buf = append(buf, `,"u":`...)
	var err error
	if buf, err = jsonwire.AppendFloat(buf, r.U); err != nil {
		return buf, err
	}
	buf = append(buf, `,"sets":`...)
	buf = strconv.AppendInt(buf, int64(r.Sets), 10)
	buf = append(buf, `,"sched":`...)
	if r.Sched == nil {
		buf = append(buf, `null`...)
	} else {
		keys := st.keys[:0]
		for k := range r.Sched {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		st.keys = keys
		buf = append(buf, '{')
		for i, k := range keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonwire.AppendString(buf, k)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, int64(r.Sched[k]), 10)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}', '\n')
	return buf, nil
}

// CampaignJSONL renders results as one JSON object per line.
func CampaignJSONL(results []PointResult) (string, error) {
	var b strings.Builder
	for _, r := range results {
		if err := WritePointResult(&b, r); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// ReadCampaignJSONL decodes a JSON-lines result stream. Blank lines are
// permitted (and not round-tripped); every other line must pass
// decodeResultLine, so every accepted stream re-encodes canonically and
// can feed the CSV emitter.
func ReadCampaignJSONL(r io.Reader) ([]PointResult, error) {
	var out []PointResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		pr, err := decodeResultLine(raw)
		if err != nil {
			return nil, fmt.Errorf("experiments: jsonl line %d: %w", line, err)
		}
		out = append(out, pr)
	}
	if err := sc.Err(); err != nil {
		// Scanner failures (a line beyond the 16 MiB cap, a reader
		// error) happen on the line after the last one delivered.
		return nil, fmt.Errorf("experiments: jsonl line %d: %w", line+1, err)
	}
	return out, nil
}

// decodeResultLine decodes one non-blank line of a campaign JSONL
// stream: a single JSON PointResult with finite U, valid scenario and
// method names and non-negative sched counts. The terminal
// {"error": msg} line that POST /v1/campaign appends when a run fails
// mid-stream is returned as the error "worker error: msg".
func decodeResultLine(raw []byte) (PointResult, error) {
	var line struct {
		PointResult
		Err *string `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&line); err != nil {
		return PointResult{}, err
	}
	if dec.More() {
		return PointResult{}, fmt.Errorf("trailing data")
	}
	if line.Err != nil {
		return PointResult{}, fmt.Errorf("worker error: %s", *line.Err)
	}
	if err := checkPointResultFields(line.PointResult); err != nil {
		return PointResult{}, err
	}
	return line.PointResult, nil
}

// checkPointResultFields enforces the documented stream invariants on a
// decoded result: finite U, valid scenario and method names,
// non-negative sched counts.
func checkPointResultFields(pr PointResult) error {
	if math.IsNaN(pr.U) || math.IsInf(pr.U, 0) {
		return fmt.Errorf("non-finite u")
	}
	if !validName(pr.Scenario) {
		return fmt.Errorf("bad scenario %q", pr.Scenario)
	}
	for m, n := range pr.Sched {
		if !validName(m) {
			return fmt.Errorf("bad method %q", m)
		}
		if n < 0 {
			return fmt.Errorf("negative sched count %d for %q", n, m)
		}
	}
	return nil
}

// csvFixedHeader is the leading column set of the campaign CSV; method
// columns follow.
const csvFixedHeader = "index,scenario,m,u,sets"

// campaignCSVHeaderNames renders the header row for method-name columns.
func campaignCSVHeaderNames(methods []string) string {
	return csvFixedHeader + "," + strings.Join(methods, ",") + "\n"
}

// appendCampaignCSVRow appends one result row under the given method
// columns (methods absent from the result render as 0).
func appendCampaignCSVRow(buf []byte, r PointResult, methods []string) []byte {
	buf = strconv.AppendInt(buf, int64(r.Index), 10)
	buf = append(buf, ',')
	buf = append(buf, r.Scenario...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.M), 10)
	buf = append(buf, ',')
	buf = strconv.AppendFloat(buf, r.U, 'g', -1, 64)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Sets), 10)
	for _, m := range methods {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Sched[m]), 10)
	}
	return append(buf, '\n')
}

// campaignCSVRowNames renders one result row as a string.
func campaignCSVRowNames(r PointResult, methods []string) string {
	return string(appendCampaignCSVRow(nil, r, methods))
}

// CampaignCSV renders results as CSV with one column per method name.
func CampaignCSV(results []PointResult, methods []string) string {
	var b strings.Builder
	b.WriteString(campaignCSVHeaderNames(methods))
	var buf []byte
	for _, r := range results {
		buf = appendCampaignCSVRow(buf[:0], r, methods)
		b.Write(buf)
	}
	return b.String()
}

// ParseCampaignCSV decodes a campaign CSV stream, returning the results
// and the method column names. It is strict about structure — header
// prefix, column counts, integer and finite-float fields, [A-Za-z0-9._-]
// scenario and method names, no duplicate method columns — so that every
// accepted stream round-trips through CampaignCSV canonically. Sched
// maps hold exactly the method columns.
func ParseCampaignCSV(data string) ([]PointResult, []string, error) {
	sc := bufio.NewScanner(strings.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("experiments: csv line 1: %w", err)
		}
		return nil, nil, fmt.Errorf("experiments: csv: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, csvFixedHeader+",") {
		return nil, nil, fmt.Errorf("experiments: csv: bad header %q", header)
	}
	methods := strings.Split(header[len(csvFixedHeader)+1:], ",")
	seen := make(map[string]bool, len(methods))
	for _, m := range methods {
		if !validName(m) {
			return nil, nil, fmt.Errorf("experiments: csv: bad method column %q", m)
		}
		if seen[m] {
			return nil, nil, fmt.Errorf("experiments: csv: duplicate method column %q", m)
		}
		seen[m] = true
	}
	var out []PointResult
	line := 1
	for sc.Scan() {
		line++
		row := sc.Text()
		if row == "" {
			continue
		}
		fields := strings.Split(row, ",")
		if len(fields) != 5+len(methods) {
			return nil, nil, fmt.Errorf("experiments: csv line %d: %d fields, want %d", line, len(fields), 5+len(methods))
		}
		var (
			r   PointResult
			err error
		)
		if r.Index, err = strconv.Atoi(fields[0]); err != nil {
			return nil, nil, fmt.Errorf("experiments: csv line %d: index: %w", line, err)
		}
		if !validName(fields[1]) {
			return nil, nil, fmt.Errorf("experiments: csv line %d: bad scenario %q", line, fields[1])
		}
		r.Scenario = fields[1]
		if r.M, err = strconv.Atoi(fields[2]); err != nil {
			return nil, nil, fmt.Errorf("experiments: csv line %d: m: %w", line, err)
		}
		if r.U, err = strconv.ParseFloat(fields[3], 64); err != nil {
			return nil, nil, fmt.Errorf("experiments: csv line %d: u: %w", line, err)
		}
		if math.IsNaN(r.U) || math.IsInf(r.U, 0) {
			return nil, nil, fmt.Errorf("experiments: csv line %d: non-finite u", line)
		}
		if r.Sets, err = strconv.Atoi(fields[4]); err != nil {
			return nil, nil, fmt.Errorf("experiments: csv line %d: sets: %w", line, err)
		}
		r.Sched = make(map[string]int, len(methods))
		for i, m := range methods {
			if r.Sched[m], err = strconv.Atoi(fields[5+i]); err != nil {
				return nil, nil, fmt.Errorf("experiments: csv line %d: %s: %w", line, m, err)
			}
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("experiments: csv line %d: %w", line+1, err)
	}
	return out, methods, nil
}
