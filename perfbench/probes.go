package main

import (
	"bytes"
	"fmt"
	"time"

	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

const (
	// kernelProbePasses is how many timed passes over layer 0's weight
	// matrices each kernel probe makes; the metric is the median pass.
	kernelProbePasses = 100
	// stepProbeSteps is how many StepBatch calls each decoder probe times.
	stepProbeSteps = 100
)

// serveLayers adds the serving workloads' per-layer metrics from the
// traced pass: the access log, the recorder's scheduler series, direct
// decoder and kernel probes on the workload's own model, and the
// admission estimate next to the arena it predicts.
func serveLayers(rep *report, o options, tr *tracer, s *served, open []job, openOut, all []outcome,
	late []float64, kvPeak, arenaCap int64, allocsPerToken float64) error {
	recs, err := serve.ReadAccessLog(bytes.NewReader(s.access.Bytes()))
	if err != nil {
		return fmt.Errorf("read access log: %w", err)
	}
	byID := map[string]serve.AccessRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	var httpMS, queueMS []float64
	for i, j := range open {
		r, ok := byID[j.id]
		if !ok || !openOut[i].ok() {
			continue
		}
		httpMS = append(httpMS, ms(openOut[i].end.Sub(openOut[i].start))-r.TotalMS)
		queueMS = append(queueMS, r.QueueMS)
	}
	shed := 0
	for _, oo := range all {
		if oo.status == 429 || oo.status == 503 {
			shed++
		}
	}
	var prompt, fed int
	for _, j := range open {
		prompt += len(j.prompt)
		fed += len(j.prompt) + j.maxTokens - 1 // the last sampled token is never fed
	}
	snap := tr.snapshot()
	steps := snap.Dists["decode.step_ms"]
	occupancy := 0.0
	if steps.Count > 0 {
		occupancy = float64(snap.Counters["decode.tokens"]) / float64(steps.Count)
	}
	rep.addLayer("serve.http_ms_p50", "ms", median(httpMS), len(httpMS))
	rep.addLayer("serve.shed_frac", "ratio", float64(shed)/float64(len(all)), len(all))
	rep.addLayer("sched.queue_wait_ms_p50", "ms", median(queueMS), len(queueMS))
	rep.addLayer("sched.queue_wait_ms_p90", "ms", quantile(queueMS, 0.9), len(queueMS))
	rep.addLayer("sched.batch_occupancy", "count", occupancy, int(steps.Count))
	rep.addLayer("sched.prefill_share", "ratio", float64(prompt)/float64(fed), fed)
	rep.addLayer("decode.step_ms_p50", "ms", steps.P50, int(steps.Count))
	rep.addLayer("decode.step_ms_p99", "ms", steps.P99, int(steps.Count))
	rep.addLayer("decode.allocs_per_token", "count", allocsPerToken, 1)
	rep.addLayer("kv.arena_cap_mb", "MB", float64(arenaCap)/mib, 1)
	rep.addLayer("govern.kv_reserved_mb_peak", "MB", float64(kvPeak)/mib, 1)
	rep.addLayer("loadgen.late_ms_max", "ms", quantile(late, 1), len(late))

	for _, b := range []int{1, 8} {
		v, err := stepProbe(s, b)
		if err != nil {
			return err
		}
		rep.addLayer(fmt.Sprintf("decode.step_ms.b%d", b), "ms", v, stepProbeSteps)
	}
	for _, m := range []int{1, 8} {
		k := kernelProbe(s, m)
		rep.addLayer(fmt.Sprintf("tensor.matmul_ms.m%d", m), "ms", k.denseMS, kernelProbePasses)
		rep.addLayer(fmt.Sprintf("tensor.matmul_packed_ms.m%d", m), "ms", k.packedMS, kernelProbePasses)
		rep.addLayer(fmt.Sprintf("tensor.matmul_mflop.m%d", m), "MFLOP", k.mflop, 1)
		rep.addLayer(fmt.Sprintf("tensor.matmul_mb.m%d", m), "MB", k.denseMB, 1)
		rep.addLayer(fmt.Sprintf("tensor.matmul_packed_mb.m%d", m), "MB", k.packedMB, 1)
		rep.notef("kernel probe m=%d over layer 0's 7 weight matrices: MatMulInto %.4f ms, MatMulPackedInto (%s) %.4f ms per pass; %.3f MFLOP, %.3f MB dense / %.3f MB packed moved per pass (bytes computed from tensor sizes)",
			m, k.denseMS, k.packedFormat, k.packedMS, k.mflop, k.denseMB, k.packedMB)
	}
	ratio := 1.0
	if s.pm != nil {
		ratio = float64(s.pm.StorageBytes()) / float64(s.pm.ReleasedBytes())
	}
	rep.addLayer("quant.pack_s", "s", s.packS, 1)
	rep.addLayer("quant.weight_ratio", "ratio", ratio, 1)
	rep.addLayer("luc.compress_s", "s", s.compressS, 1)
	rep.addLayer("luc.probe_s", "s", s.probeS, 1)

	cfg := serveModel
	rep.notef("estimate-vs-measured: govern.ServeKVBytes reserved peak %.3f MB (one full-length request %.3f MB) | KV arena capacity %.3f MB (ArenaCapBytes)",
		float64(kvPeak)/mib, float64(govern.ServeKVBytes(cfg.Layers, cfg.Dim, cfg.MaxSeq))/mib, float64(arenaCap)/mib)
	return nil
}

// stepProbe times StepBatch directly on a fresh decoder over the
// workload's model with b active slots; it returns the median ms per step.
func stepProbe(s *served, b int) (float64, error) {
	dec := nn.NewBatchDecoder(s.m, serveSlots, nil)
	defer dec.Close()
	if s.pm != nil {
		if err := dec.SetPacked(s.pm); err != nil {
			return 0, fmt.Errorf("step probe: %w", err)
		}
	}
	tokens := make([]int, b)
	slots := make([]int, b)
	for i := range tokens {
		tokens[i] = (i*31 + 7) % serveModel.Vocab
	}
	durs := make([]float64, 0, stepProbeSteps)
	for len(durs) < stepProbeSteps {
		dec.Reset()
		for i := range slots {
			var err error
			if slots[i], err = dec.Acquire(); err != nil {
				return 0, fmt.Errorf("step probe: %w", err)
			}
		}
		for p := 0; p < serveModel.MaxSeq && len(durs) < stepProbeSteps; p++ {
			t0 := time.Now()
			if _, err := dec.StepBatch(tokens, slots); err != nil {
				return 0, fmt.Errorf("step probe: %w", err)
			}
			durs = append(durs, ms(time.Since(t0)))
		}
	}
	return median(durs), nil
}

type kernelResult struct {
	denseMS, packedMS        float64
	mflop, denseMB, packedMB float64
	packedFormat             string
}

// storageSizer is implemented by the quant packed formats.
type storageSizer interface{ StorageBytes() int64 }

// kernelProbe times MatMulInto and MatMulPackedInto at m rows over layer
// 0's seven weight matrices. Dense weights are the model's float32 ones,
// or the packed codes decoded to float32 when the layer is packed; packed
// weights are the model's own, or a 4-bit packing of the float32 ones.
// Bytes moved are computed from tensor sizes: input, weight and output
// once per call.
func kernelProbe(s *served, m int) kernelResult {
	var res kernelResult
	var dense []*tensor.Tensor
	var packed []tensor.PackedMat
	res.packedFormat = "4b packing of the float32 weights"
	for wi, w := range s.m.Blocks[0].WeightMatrices() {
		rows, cols := w.Shape[0], w.Shape[1]
		var pmat tensor.PackedMat
		if s.pm != nil {
			pmat = s.pm.Mat(0, wi)
		}
		if len(w.Data) > 0 {
			dense = append(dense, w)
		} else {
			d := tensor.New(rows, cols)
			pmat.DecodeRowsInto(d.Data, 0, rows, 0, cols)
			dense = append(dense, d)
		}
		if pmat == nil {
			pmat = quant.Pack(w, 4)
		} else {
			res.packedFormat = "layer 0 as packed by LUC: " + s.pm.Specs()[0].String()
		}
		packed = append(packed, pmat)
		var pbytes int64
		if sz, ok := pmat.(storageSizer); ok {
			pbytes = sz.StorageBytes()
		}
		io := float64(m*rows+m*cols) * 4
		res.mflop += 2 * float64(m*rows*cols) / 1e6
		res.denseMB += (io + float64(rows*cols)*4) / mib
		res.packedMB += (io + float64(pbytes)) / mib
	}
	rng := tensor.NewRNG(int64(m))
	ins := make([]*tensor.Tensor, len(dense))
	outs := make([]*tensor.Tensor, len(dense))
	for i, w := range dense {
		ins[i] = rng.Normal(0, 1, m, w.Shape[0])
		outs[i] = tensor.New(m, w.Shape[1])
	}
	scratch := tensor.NewPackedScratch()
	timePasses := func(pass func()) float64 {
		pass() // warm caches and scratch
		durs := make([]float64, kernelProbePasses)
		for i := range durs {
			t0 := time.Now()
			pass()
			durs[i] = ms(time.Since(t0))
		}
		return median(durs)
	}
	res.denseMS = timePasses(func() {
		for i, w := range dense {
			tensor.MatMulInto(outs[i], ins[i], w)
		}
	})
	res.packedMS = timePasses(func() {
		for i, w := range packed {
			tensor.MatMulPackedInto(outs[i], ins[i], w, scratch)
		}
	})
	return res
}
