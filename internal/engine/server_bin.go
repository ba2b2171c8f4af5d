package engine

// Binary response codec for the engine endpoints (negotiated with
// "Accept: application/x-lpdag-bin"; see internal/wire for the frame
// envelope).
//
// Only 2xx payloads have a binary form: error responses keep the JSON
// {"error": ...} body with its status code, so failure handling is
// codec-independent. The binary bodies are wire.FrameResult frames whose
// payloads carry the same data as the JSON responses:
//
//	POST /v1/analyze                  one frame per batch element (analyzeResult)
//	POST /v1/sessions                 one frame: session id + analyzeResult (201)
//	GET  /v1/sessions/{id}/report     one frame: analyzeResult
//	POST /v1/sessions/{id}/edits      one frame: analyzeResult
//	POST /v1/sessions/{id}/admit      one frame: admitted byte + analyzeResult
//
// All frames of one response are encoded through a single pooled buffer
// pair, so a whole batch allocates O(1) on the encode path.

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/wire"
)

// binaryAccepted reports whether the request negotiated the binary
// response framing.
func binaryAccepted(r *http.Request) bool {
	return wire.Accepts(r.Header.Get("Accept"))
}

// binBuf is the reusable scratch of one binary response: the per-record
// payload buffer and the accumulated frame bytes. The JSON /v1/analyze
// response is appended into frames too.
type binBuf struct {
	payload, frames []byte
}

var binBufPool = sync.Pool{New: func() any { return new(binBuf) }}

// writeFrame sends a single-frame binary response whose payload is
// produced by build appending into a pooled buffer.
func (s *Server) writeFrame(w http.ResponseWriter, status int, build func(dst []byte) []byte) {
	st := binBufPool.Get().(*binBuf)
	defer binBufPool.Put(st)
	st.payload = build(st.payload[:0])
	st.frames = wire.AppendFrame(st.frames[:0], wire.FrameResult, st.payload)
	s.writeBody(w, status, wire.ContentType, st.frames)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendAnalyzeResultBin appends the binary form of one analyzeResult:
// string error, bool schedulable, string method, zigzag cores, float64
// utilization, then a uvarint task count and per task string name, bool
// schedulable, bool analyzed, and zigzag response_time, deadline,
// delta_m, delta_m1, preemptions, iterations.
func appendAnalyzeResultBin(dst []byte, r analyzeResult) []byte {
	dst = wire.AppendString(dst, r.Error)
	dst = appendBool(dst, r.Schedulable)
	dst = wire.AppendString(dst, r.Method)
	dst = wire.AppendZigzag(dst, int64(r.Cores))
	dst = wire.AppendFloat64(dst, r.Utilization)
	dst = binary.AppendUvarint(dst, uint64(len(r.Tasks)))
	for _, t := range r.Tasks {
		dst = wire.AppendString(dst, t.Name)
		dst = appendBool(dst, t.Schedulable)
		dst = appendBool(dst, t.Analyzed)
		dst = wire.AppendZigzag(dst, t.ResponseTime)
		dst = wire.AppendZigzag(dst, t.Deadline)
		dst = wire.AppendZigzag(dst, t.DeltaM)
		dst = wire.AppendZigzag(dst, t.DeltaM1)
		dst = wire.AppendZigzag(dst, t.Preemptions)
		dst = wire.AppendZigzag(dst, int64(t.Iterations))
	}
	return dst
}

// Decode limits for the binary result form (client side: tests and any
// Go consumer of the binary API).
const (
	maxBinStringBytes  = 1 << 20
	maxBinResultTasks  = 1 << 20
	errBinTaskOverflow = "binary result: task count %d exceeds limit %d"
)

// decodeAnalyzeResultBin consumes one analyzeResult from d, the inverse
// of appendAnalyzeResultBin.
func decodeAnalyzeResultBin(d *wire.Dec) (analyzeResult, error) {
	var r analyzeResult
	r.Error = d.String(maxBinStringBytes)
	r.Schedulable = d.Byte() != 0
	r.Method = d.String(maxBinStringBytes)
	r.Cores = int(d.Zigzag())
	r.Utilization = d.Float64()
	n := d.Uvarint()
	if d.Err() == nil && n > maxBinResultTasks {
		return r, fmt.Errorf(errBinTaskOverflow, n, maxBinResultTasks)
	}
	if d.Err() == nil && n > 0 {
		r.Tasks = make([]taskReportJSON, n)
		for i := range r.Tasks {
			t := &r.Tasks[i]
			t.Name = d.String(maxBinStringBytes)
			t.Schedulable = d.Byte() != 0
			t.Analyzed = d.Byte() != 0
			t.ResponseTime = d.Zigzag()
			t.Deadline = d.Zigzag()
			t.DeltaM = d.Zigzag()
			t.DeltaM1 = d.Zigzag()
			t.Preemptions = d.Zigzag()
			t.Iterations = int(d.Zigzag())
			if d.Err() != nil {
				break
			}
		}
	}
	return r, d.Err()
}

// maxBinTransforms bounds the decoded transform count of a repair
// result; real sequences are MaxSteps (single digits) long.
const maxBinTransforms = 1 << 16

// appendRepairResultBin appends the binary form of one repairResponse:
// bools fixed, stopped, applied; zigzag candidates, failing_before,
// failing_after, slack_before, slack_after; a uvarint transform count
// with per transform string op, string task, zigzag max_npr, zigzag
// to; then the report (appendAnalyzeResultBin).
func appendRepairResultBin(dst []byte, r repairResponse) []byte {
	dst = appendBool(dst, r.Fixed)
	dst = appendBool(dst, r.Stopped)
	dst = appendBool(dst, r.Applied)
	dst = wire.AppendZigzag(dst, int64(r.Candidates))
	dst = wire.AppendZigzag(dst, int64(r.FailingBefore))
	dst = wire.AppendZigzag(dst, int64(r.FailingAfter))
	dst = wire.AppendZigzag(dst, r.SlackBefore)
	dst = wire.AppendZigzag(dst, r.SlackAfter)
	dst = binary.AppendUvarint(dst, uint64(len(r.Transforms)))
	for _, t := range r.Transforms {
		dst = wire.AppendString(dst, t.Op)
		dst = wire.AppendString(dst, t.Task)
		dst = wire.AppendZigzag(dst, t.MaxNPR)
		dst = wire.AppendZigzag(dst, int64(t.To))
	}
	return appendAnalyzeResultBin(dst, r.Report)
}

// decodeRepairResultBin consumes one repairResponse from d, the
// inverse of appendRepairResultBin.
func decodeRepairResultBin(d *wire.Dec) (repairResponse, error) {
	var r repairResponse
	r.Fixed = d.Byte() != 0
	r.Stopped = d.Byte() != 0
	r.Applied = d.Byte() != 0
	r.Candidates = int(d.Zigzag())
	r.FailingBefore = int(d.Zigzag())
	r.FailingAfter = int(d.Zigzag())
	r.SlackBefore = d.Zigzag()
	r.SlackAfter = d.Zigzag()
	n := d.Uvarint()
	if d.Err() == nil && n > maxBinTransforms {
		return r, fmt.Errorf("binary result: transform count %d exceeds limit %d", n, maxBinTransforms)
	}
	if d.Err() == nil && n > 0 {
		r.Transforms = make([]transformJSON, n)
		for i := range r.Transforms {
			t := &r.Transforms[i]
			t.Op = d.String(maxBinStringBytes)
			t.Task = d.String(maxBinStringBytes)
			t.MaxNPR = d.Zigzag()
			t.To = int(d.Zigzag())
			if d.Err() != nil {
				break
			}
		}
	}
	rep, err := decodeAnalyzeResultBin(d)
	if err != nil {
		return r, err
	}
	r.Report = rep
	return r, d.Err()
}
