package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLSink writes one JSON object per line: every event as it is
// emitted, then (via EmitSummary) a final {"kind":"summary"} line
// carrying the registry snapshot. Errors are sticky and reported by
// Close, so the hot emit path never has to check them.
type JSONLSink struct {
	w     *bufio.Writer
	c     io.Closer // underlying closer, if any
	enc   *json.Encoder
	err   error
	lines uint64
}

// NewJSONLSink wraps w. If w is also an io.Closer it is closed by
// Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = err
		return
	}
	s.lines++
}

// summaryLine is the final JSONL record.
type summaryLine struct {
	Kind    string   `json:"kind"`
	Events  uint64   `json:"events"`
	Metrics []Metric `json:"metrics"`
}

// EmitSummary implements SummarySink.
func (s *JSONLSink) EmitSummary(snapshot []Metric) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(summaryLine{Kind: "summary", Events: s.lines, Metrics: snapshot})
}

// Close flushes and reports the first write error.
func (s *JSONLSink) Close() error {
	ferr := s.w.Flush()
	if s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

var _ SummarySink = (*JSONLSink)(nil)

// CSVSummarySink ignores the event stream and writes only the final
// registry snapshot as CSV (one metric per row) — the cheap "give me
// the numbers in a spreadsheet" sink.
type CSVSummarySink struct {
	w   io.Writer
	c   io.Closer
	err error
}

// NewCSVSummarySink wraps w. If w is also an io.Closer it is closed
// by Close.
func NewCSVSummarySink(w io.Writer) *CSVSummarySink {
	s := &CSVSummarySink{w: w}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink (events are not recorded).
func (s *CSVSummarySink) Emit(Event) {}

// EmitSummary implements SummarySink.
func (s *CSVSummarySink) EmitSummary(snapshot []Metric) {
	if s.err != nil {
		return
	}
	cw := csv.NewWriter(s.w)
	s.err = cw.Write([]string{"name", "kind", "value", "count", "sum", "mean", "p50", "p90", "p99"})
	for _, m := range snapshot {
		if s.err != nil {
			break
		}
		s.err = cw.Write([]string{
			m.Name, m.Kind,
			fmtFloat(m.Value), fmt.Sprint(m.Count), fmtFloat(m.Sum),
			fmtFloat(m.Mean), fmtFloat(m.P50), fmtFloat(m.P90), fmtFloat(m.P99),
		})
	}
	cw.Flush()
	if s.err == nil {
		s.err = cw.Error()
	}
}

func fmtFloat(v float64) string { return fmt.Sprintf("%g", v) }

// Close reports the first write error.
func (s *CSVSummarySink) Close() error {
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

var _ SummarySink = (*CSVSummarySink)(nil)
