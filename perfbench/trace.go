package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"edgellm/internal/obsv"
)

// tracer owns the traced pass's recorder. Spans are kept in memory as
// Chrome trace events and written to a file only when the pass ends. A
// nil *tracer (the untraced pass) makes every method inert.
type tracer struct {
	rec *obsv.Recorder
	tw  *obsv.TraceWriter
	buf bytes.Buffer
}

// startTracing installs the global recorder when o is the traced pass.
func startTracing(o options) *tracer {
	if !o.traced {
		return nil
	}
	t := &tracer{rec: obsv.New()}
	t.tw = obsv.NewTraceWriter(&t.buf)
	t.rec.SetTraceWriter(t.tw)
	obsv.SetGlobal(t.rec)
	return t
}

// span starts a root span of the benchmark's own; inert when untraced.
func (t *tracer) span(name string) obsv.Span {
	if t == nil {
		return obsv.Span{}
	}
	return t.rec.StartSpan(name)
}

// snapshot returns the recorder's aggregates (empty when untraced).
func (t *tracer) snapshot() obsv.Summary {
	if t == nil {
		return (*obsv.Recorder)(nil).Snapshot()
	}
	return t.rec.Snapshot()
}

// finish detaches the recorder and writes the trace (and any extra
// artifacts, such as the serve access log) under .bench_build/.
func (t *tracer) finish(o options, extra map[string][]byte) error {
	if t == nil {
		return nil
	}
	obsv.SetGlobal(nil)
	if err := t.tw.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	files := map[string][]byte{"trace.json": t.buf.Bytes()}
	for k, v := range extra {
		files[k] = v
	}
	for name, data := range files {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, name))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	}
	return nil
}

// spanSum returns the total ms and count over every span series whose key
// starts with name (all label sets of one span name).
func spanSum(s obsv.Summary, name string) (totalMS float64, count int64) {
	for key, st := range s.Spans {
		if key == name || strings.HasPrefix(key, name+"{") {
			totalMS += st.TotalMS
			count += st.Count
		}
	}
	return totalMS, count
}
