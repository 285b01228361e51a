package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prom renders metrics in the Prometheus text exposition format
// (version 0.0.4): one HELP and TYPE line per metric followed by its
// sample. It is the minimal subset replayd's /metrics endpoint needs —
// unlabeled counters and gauges — kept here beside the table renderers
// so every output format the harness speaks lives in one package.
type Prom struct {
	w   io.Writer
	err error
}

// NewProm returns a renderer writing to w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// Counter emits a monotonically increasing metric.
func (p *Prom) Counter(name, help string, value float64) {
	p.metric(name, help, "counter", value)
}

// Gauge emits a point-in-time metric.
func (p *Prom) Gauge(name, help string, value float64) {
	p.metric(name, help, "gauge", value)
}

// Histogram emits a snapshot in the Prometheus histogram exposition:
// cumulative _bucket{le="..."} samples ending at +Inf, then _sum and
// _count. Buckets whose snapshot carries an exemplar get an
// OpenMetrics exemplar annotation — `# {trace_id="..."} value ts` —
// appended to the bucket line, linking the bucket to a stored trace.
func (p *Prom) Histogram(s HistogramSnapshot) {
	if p.err != nil {
		return
	}
	p.header(s.Name, s.Help, "histogram")
	cum := uint64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.printf("%s_bucket{le=\"%s\"} %d%s\n", s.Name, formatBound(b), cum, exemplarSuffix(s, i))
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d%s\n", s.Name, s.Count, exemplarSuffix(s, len(s.Bounds)))
	p.printf("%s_sum %s\n", s.Name, strconv.FormatFloat(s.Sum, 'g', -1, 64))
	p.printf("%s_count %d\n", s.Name, s.Count)
}

// exemplarSuffix renders bucket i's exemplar annotation, or "".
func exemplarSuffix(s HistogramSnapshot, i int) string {
	if i >= len(s.Exemplars) || s.Exemplars[i].TraceID == "" {
		return ""
	}
	ex := s.Exemplars[i]
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
		ex.TraceID,
		strconv.FormatFloat(ex.Value, 'g', -1, 64),
		float64(ex.Ts.UnixNano())/1e9)
}

// LabeledSample is one sample of a single-label metric family.
type LabeledSample struct {
	Label string
	Value float64
}

// LabeledCounter emits a counter family with one label dimension: one
// sample line per entry, in the given order. replayd uses it for the
// per-loop-depth-bucket reuse counters, where the label set is small
// and fixed.
func (p *Prom) LabeledCounter(name, help, label string, samples []LabeledSample) {
	if p.err != nil {
		return
	}
	p.header(name, help, "counter")
	for _, s := range samples {
		p.printf("%s{%s=%q} %s\n", name, label, s.Label,
			strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
}

func (p *Prom) metric(name, help, kind string, value float64) {
	if p.err != nil {
		return
	}
	p.header(name, help, kind)
	p.printf("%s %s\n", name, strconv.FormatFloat(value, 'g', -1, 64))
}

func (p *Prom) header(name, help, kind string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, kind)
}

func (p *Prom) printf(format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeHelp applies the exposition-format escaping for HELP lines:
// backslash first (so escapes we introduce aren't re-escaped), then
// newline. An unescaped newline would terminate the comment mid-text
// and turn the remainder into a garbage sample line.
func escapeHelp(help string) string {
	help = strings.ReplaceAll(help, `\`, `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}

// formatBound renders a bucket bound the way Prometheus expects: the
// shortest float representation ("8", "0.5", "1e+06").
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Err reports the first write error, if any.
func (p *Prom) Err() error { return p.err }
