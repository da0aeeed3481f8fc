package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"edgellm/internal/govern"
	"edgellm/internal/luc"
	"edgellm/internal/nn"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

// Serving workload constants. The rate and the latency limits are fixed
// here, never adapted to the commit under test.
const (
	// serveRate is the open-loop arrival rate in requests per second. At
	// the commit that added the benchmark, on a 2-vCPU x86-64 host, it kept
	// serve_luc's decoder about half busy (≈38 steps/s at a median token
	// gap of ≈14 ms) and serve_f32's about a quarter; the bursts, at eight
	// busy slots, put the saturated rate of either near 6 requests/s.
	// Both workloads get the same rate so weight format is their only
	// difference.
	serveRate = 2.0
	// serveBurst is the number of requests an offline burst submits at
	// once. serveBurstReps bursts alternate with serveBurstReps-1 segments
	// of the open loop.
	serveBurst     = 16
	serveBurstReps = 3
	// serveTTFTLimitMS and serveITLLimitMS are the per-request latency
	// limits behind slo_ok_frac: time to first token, and every gap
	// between consecutive token lines.
	serveTTFTLimitMS = 2500
	serveITLLimitMS  = 250
	// serveSetupReps is how many times serve_f32 sets up; setup_s is the
	// median. serve_luc sets up once: its LUC probe alone takes ≈13–17 s
	// on a 2-vCPU host, and one run cannot afford several.
	serveSetupReps = 15
	// serveVerifyPerClass is how many open-loop requests of each class are
	// checked against a solo decode (every burst request is checked too).
	serveVerifyPerClass = 3
	// servePPLSeqs is the number of seeded token sequences behind ppl.
	servePPLSeqs = 4
	// serveLUCBudget is the LUC average effective-bit budget of serve_luc.
	serveLUCBudget = 3.5
	serveSlots     = 8
	// scheduleSeed draws the traffic shape shared by every workload seed.
	scheduleSeed = 20261017
	// modelSeed draws the served model's weights. They are the same for
	// every workload seed, so weight_mb, the LUC policy and ppl are
	// deterministic and any change to the served numerics moves ppl.
	modelSeed = 42
	serveTemp = 0.8
	serveTopK = 40
)

// serveModel is the decode-bench shape: 4 layers, d=256, hidden 768,
// vocabulary 2048; MaxSeq fits the longest request (48 + 8 tokens).
var serveModel = nn.Config{Vocab: 2048, Dim: 256, Heads: 8, Layers: 4, Hidden: 768, MaxSeq: 56}

// Request classes: prefill-heavy (long prompt, few tokens out) and
// generation-heavy (short prompt, many tokens out).
type reqClass struct {
	name               string
	promptLo, promptHi int
	tokensLo, tokensHi int
}

var classes = [2]reqClass{
	prefillClass:  {"prefill", 32, 48, 4, 8},
	generateClass: {"generate", 4, 8, 16, 32},
}

const (
	prefillClass = iota
	generateClass
)

// job is one generated request.
type job struct {
	id        string
	class     int
	prompt    []int
	maxTokens int
	seed      int64
	// offset is the due time on the open-loop schedule (0 in the burst);
	// runOpenLoop replays each segment relative to its first request.
	offset time.Duration
	verify bool
}

// genJobs derives the open-loop and burst requests. The open loop has
// Poisson arrivals at serveRate; both phases are an exact 50/50 mix of the
// two request classes.
//
// The shape of the traffic — arrival times, class order, prompt and output
// lengths — is one fixed schedule drawn from scheduleSeed, shared by every
// seed: with a few dozen requests per run, a fresh draw per seed moved the
// latency percentiles more than any host noise did. The draws are also
// stratified: gaps are the evenly spaced quantiles of the exponential
// distribution and lengths are evenly spread over each class's range. The
// workload seed draws the prompt tokens and the sampling seeds, so two
// seeds send different requests of the same shape.
func genJobs(seed int64, seconds int) (open, burst []job) {
	shape := rand.New(rand.NewSource(scheduleSeed))
	content := rand.New(rand.NewSource(seed))
	mk := func(prefix string, n int) []job {
		cls := make([]int, n)
		for i := range cls {
			cls[i] = i % 2
		}
		shape.Shuffle(n, func(i, j int) { cls[i], cls[j] = cls[j], cls[i] })
		var byClass [2][]int
		for i, c := range cls {
			byClass[c] = append(byClass[c], i)
		}
		jobs := make([]job, n)
		for c, idx := range byClass {
			k := classes[c]
			plen := spread(shape, len(idx), k.promptLo, k.promptHi)
			olen := spread(shape, len(idx), k.tokensLo, k.tokensHi)
			for x, i := range idx {
				jobs[i] = job{id: fmt.Sprintf("%s%d", prefix, i), class: c,
					prompt: make([]int, plen[x]), maxTokens: olen[x]}
			}
		}
		for i := range jobs {
			for t := range jobs[i].prompt {
				jobs[i].prompt[t] = content.Intn(serveModel.Vocab)
			}
			jobs[i].seed = content.Int63()
		}
		return jobs
	}
	open = mk("o", int(math.Ceil(serveRate*float64(seconds))))
	gaps := make([]float64, len(open))
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(len(gaps))) / serveRate
	}
	shape.Shuffle(len(gaps), func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	at := 0.0
	for i := range open {
		at += gaps[i]
		open[i].offset = time.Duration(at * float64(time.Second))
	}
	// A seeded subset of each class is verified against solo decodes.
	for c := range classes {
		var idx []int
		for i, j := range open {
			if j.class == c {
				idx = append(idx, i)
			}
		}
		content.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx[:min(serveVerifyPerClass, len(idx))] {
			open[i].verify = true
		}
	}
	burst = mk("b", serveBurst)
	for i := range burst {
		burst[i].verify = true
	}
	return open, burst
}

// spread returns n integers evenly spread over [lo, hi], in random order.
func spread(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + int((float64(i)+0.5)/float64(n)*float64(hi-lo+1))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// outcome is what the in-process client saw of one request.
type outcome struct {
	due, start, end time.Time
	status          int
	lineTimes       []time.Time // arrival of each token line
	tokens          []int       // token lines, in order
	final           []int       // prompt+continuation from the final line
	done            bool
	errMsg          string
}

func (o *outcome) ok() bool { return o.status == http.StatusOK && o.done && o.errMsg == "" }

// lineWriter is the in-process client's http.ResponseWriter: it splits the
// NDJSON body into lines and stamps each line with the time it arrived.
type lineWriter struct {
	hdr     http.Header
	status  int
	partial []byte
	lines   [][]byte
	times   []time.Time
}

func (w *lineWriter) Header() http.Header { return w.hdr }

func (w *lineWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *lineWriter) Write(p []byte) (int, error) {
	now := time.Now()
	w.WriteHeader(http.StatusOK)
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		w.lines = append(w.lines, append([]byte(nil), w.partial[:i]...))
		w.times = append(w.times, now)
		w.partial = w.partial[i+1:]
	}
	return len(p), nil
}

func (w *lineWriter) Flush() {}

// call sends j to h as a streaming /v1/generate request and records what
// came back.
func call(h http.Handler, j job, due time.Time) outcome {
	body, err := json.Marshal(map[string]any{
		"id": j.id, "prompt": j.prompt, "max_tokens": j.maxTokens,
		"temperature": serveTemp, "top_k": serveTopK, "seed": j.seed, "stream": true,
	})
	if err != nil {
		return outcome{due: due, errMsg: err.Error()}
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
	if err != nil {
		return outcome{due: due, errMsg: err.Error()}
	}
	w := &lineWriter{hdr: http.Header{}}
	o := outcome{due: due, start: time.Now()}
	h.ServeHTTP(w, req)
	o.end = time.Now()
	o.status = w.status
	for i, line := range w.lines {
		var msg struct {
			Token  *int   `json:"token"`
			Tokens []int  `json:"tokens"`
			Done   bool   `json:"done"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(line, &msg); err != nil {
			o.errMsg = fmt.Sprintf("bad response line %q: %v", line, err)
			return o
		}
		switch {
		case msg.Error != "":
			o.errMsg = msg.Error
		case msg.Token != nil:
			o.tokens = append(o.tokens, *msg.Token)
			o.lineTimes = append(o.lineTimes, w.times[i])
		case msg.Done:
			o.done, o.final = true, msg.Tokens
		}
	}
	return o
}

// served is one set-up of the serving stack.
type served struct {
	m   *nn.Model
	pm  *nn.PackedModel
	dec *nn.Decoder
	srv *serve.Server
	// access holds the traced pass's access log; log flushes into it.
	access *bytes.Buffer
	log    *serve.AccessLog
	// LUC set-up phases (serve_luc only), in seconds.
	probeS, compressS, packS float64
	packDesc                 string
}

// setUp builds the model, applies LUC and packs it when packed, and
// starts the server. The access log is kept in memory.
func setUp(packed bool, tr *tracer) (*served, error) {
	sp := tr.span("bench.setup")
	defer sp.End()
	s := &served{m: nn.NewModel(serveModel, tensor.NewRNG(modelSeed))}
	pool := tensor.NewPool()
	if packed {
		nn.AdoptWeights(s.m, pool)
		cands := luc.DefaultCandidates()
		t0 := time.Now()
		sens := luc.Probe(s.m, cands, luc.ProbeOptions{Metric: luc.MetricWeightError, Trace: sp})
		s.probeS = time.Since(t0).Seconds()
		policy := luc.SearchDP(sens, cands, serveLUCBudget)
		info := luc.Apply(s.m, policy, cands)
		s.compressS = time.Since(t0).Seconds()
		t1 := time.Now()
		var err error
		if s.pm, err = nn.PackModel(s.m, luc.PackSpecs(policy, cands), pool); err != nil {
			return nil, fmt.Errorf("serve: pack: %w", err)
		}
		s.packS = time.Since(t1).Seconds()
		s.packDesc = fmt.Sprintf("luc@%.2f achieved %.2f eff. bits: %s; packed %s",
			serveLUCBudget, info.AvgEffectiveBits, policy.Describe(cands), s.pm.Describe())
	}
	s.dec = nn.NewBatchDecoder(s.m, serveSlots, pool)
	if s.pm != nil {
		if err := s.dec.SetPacked(s.pm); err != nil {
			return nil, fmt.Errorf("serve: SetPacked: %w", err)
		}
	}
	cfg := serve.ServerConfig{
		MaxQueue:     64,
		DrainTimeout: 10 * time.Second,
		// A non-binding budget: admission reserves each request's KV bytes
		// (visible on /statusz) but never refuses one.
		Budget: govern.Budget{MemoryBytes: 1 << 40},
	}
	if tr != nil {
		s.access = &bytes.Buffer{}
		s.log = serve.NewAccessLog(s.access)
		cfg.AccessLog = s.log
	}
	s.srv = serve.NewServer(s.dec, cfg)
	return s, nil
}

// residentWeightBytes is the block-weight bytes the server keeps: packed
// codes plus any layer left at float32.
func (s *served) residentWeightBytes() int64 {
	var n int64
	if s.pm != nil {
		n = s.pm.StorageBytes()
	}
	for _, blk := range s.m.Blocks {
		for _, w := range blk.WeightMatrices() {
			n += int64(len(w.Data)) * 4
		}
	}
	return n
}

// runServe is the serve_f32 / serve_luc workload.
func runServe(o options, packed bool) (*report, error) {
	rep := &report{}
	tr := startTracing(o)
	open, burst := genJobs(o.seed, o.seconds)

	reps := serveSetupReps
	if packed || o.traced {
		reps = 1
	}
	var s *served
	var setups []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.srv.Drain(); err != nil {
				return nil, err
			}
			s.dec.Close()
			// Collect the discarded set-up so it does not raise the
			// peak resident set of the one that serves.
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(packed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	h := s.srv.Handler()

	// In the traced pass, sample /statusz for the admission reservation.
	var kvPeak int64
	stopSampler := func() {}
	if tr != nil {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					kvPeak = max(kvPeak, reservedKV(h))
				}
			}
		}()
		stopSampler = func() { close(stop); <-done }
	}

	// The run alternates offline bursts with segments of the open loop —
	// burst, open-loop half, burst, open-loop half, burst — so the medians
	// over bursts and over open-loop requests each span the whole run and a
	// transient slowdown of the host reaches few of their samples.
	openOut := make([]outcome, len(open))
	late := make([]float64, len(open))
	var openWall time.Duration
	var burstRuns [serveBurstReps][]outcome
	var burstTPS []float64
	burstTokens := 0
	var burstMallocs uint64
	segments := serveBurstReps - 1
	for r := range burstRuns {
		sp := tr.span("bench.burst")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, tokens, makespan := runBurst(h, burst)
		runtime.ReadMemStats(&m1)
		sp.End()
		burstRuns[r] = out
		burstTPS = append(burstTPS, float64(tokens)/makespan.Seconds())
		burstTokens += tokens
		burstMallocs += m1.Mallocs - m0.Mallocs
		if r == segments {
			break
		}
		lo, hi := r*len(open)/segments, (r+1)*len(open)/segments
		sp = tr.span("bench.open_loop")
		openWall += runOpenLoop(h, open[lo:hi], openOut[lo:hi], late[lo:hi])
		sp.End()
	}
	stopSampler()

	if err := s.srv.Drain(); err != nil {
		rep.checkf("serve: Drain: %v", err)
	}
	if err := s.log.Close(); err != nil {
		return nil, fmt.Errorf("serve: access log: %w", err)
	}
	arenaCap := s.dec.ArenaCapBytes()
	s.dec.Close()

	burstOut := burstRuns[0]
	if o.inject == "corrupt_token" {
		for i := range burstOut {
			if len(burstOut[i].tokens) > 0 {
				burstOut[i].tokens[0] = (burstOut[i].tokens[0] + 1) % serveModel.Vocab
				break
			}
		}
	}
	// Repeated bursts carry the same requests, so they must stream the same
	// tokens; the first is verified against solo decodes below.
	for r := 1; r < len(burstRuns); r++ {
		for i, bo := range burstRuns[r] {
			if bo.ok() && burstOut[i].ok() && !intsEqual(bo.tokens, burstOut[i].tokens) {
				rep.checkf("burst %d request %s: tokens %v differ from burst 0 %v", r, burst[i].id, bo.tokens, burstOut[i].tokens)
			}
		}
	}

	// Output checks, outside the timed window.
	sp := tr.span("bench.verify")
	all := append(append([]job(nil), open...), burst...)
	outs := append(append([]outcome(nil), openOut...), burstOut...)
	attempted := append([]outcome(nil), openOut...)
	for _, run := range burstRuns {
		attempted = append(attempted, run...)
	}
	ppl, err := verify(rep, s, all, outs)
	sp.End()
	if err != nil {
		return nil, err
	}

	// End-to-end metrics from the open-loop phase and the burst.
	// TTFT is reported per class: the two classes' TTFTs form two modes
	// an order of magnitude apart, and a percentile of the mixture lands in
	// the gap between them.
	var ttft [2][]float64
	var itl []float64
	sloOK, okN := 0, 0
	for i, oo := range openOut {
		if !oo.ok() || len(oo.lineTimes) == 0 {
			continue
		}
		first := ms(oo.lineTimes[0].Sub(oo.due))
		ttft[open[i].class] = append(ttft[open[i].class], first)
		meets := first <= serveTTFTLimitMS
		for k := 1; k < len(oo.lineTimes); k++ {
			gap := ms(oo.lineTimes[k].Sub(oo.lineTimes[k-1]))
			itl = append(itl, gap)
			meets = meets && gap <= serveITLLimitMS
		}
		if meets {
			sloOK++
		}
	}
	for _, oo := range attempted {
		if oo.ok() {
			okN++
		}
	}
	hwm, err := vmHWM()
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = len(attempted), len(attempted)-okN
	rep.addE2E("setup_s", "s", median(setups), reps)
	rep.addE2E("tok_s", "tok/s", median(burstTPS), burstTokens)
	rep.addE2E("step_ms_p50", "ms", median(itl), len(itl))
	rep.addE2E("step_ms_p90", "ms", quantile(itl, 0.90), len(itl))
	rep.addE2E("ttft_ms_short_p50", "ms", median(ttft[generateClass]), len(ttft[generateClass]))
	rep.addE2E("ttft_ms_long_p50", "ms", median(ttft[prefillClass]), len(ttft[prefillClass]))
	rep.addE2E("slo_ok_frac", "ratio", float64(sloOK)/float64(len(open)), len(open))
	rep.addE2E("ppl", "ppl", ppl, servePPLSeqs*(serveModel.MaxSeq-1))
	rep.addE2E("peak_mem_mb", "MB", float64(hwm)/mib, 1)
	rep.addE2E("weight_mb", "MB", float64(s.residentWeightBytes())/mib, 1)
	rep.addE2E("ok_frac", "ratio", float64(okN)/float64(len(attempted)), len(attempted))

	rep.notef("loadgen: %d open-loop requests at %.2f req/s over %s in %d segments; generator lateness p50 %.3f ms, max %.3f ms",
		len(open), serveRate, openWall.Round(time.Millisecond), segments, median(late), quantile(late, 1))
	rep.notef("open loop: token gap p98 %.3f ms, p99 %.3f ms (n=%d, not gated: see README)",
		quantile(itl, 0.98), quantile(itl, 0.99), len(itl))
	rep.notef("burst: %d requests × %d repetitions, %d output tokens; throughput per repetition %.4g tok/s",
		len(burst), serveBurstReps, burstTokens, burstTPS)
	if s.pm != nil {
		rep.notef("weights: %s", s.packDesc)
	}

	if tr != nil {
		if err := serveLayers(rep, o, tr, s, open, openOut, attempted, late, kvPeak, arenaCap,
			float64(burstMallocs)/float64(max(burstTokens, 1))); err != nil {
			return nil, err
		}
	}
	var extra map[string][]byte
	if s.access != nil {
		extra = map[string][]byte{"access.jsonl": s.access.Bytes()}
	}
	return rep, tr.finish(o, extra)
}

// runOpenLoop sends jobs from one arrival goroutine, each at its due time
// relative to the first, whatever the server is doing; it records each
// outcome and how late the generator launched it, and returns the time
// from the segment's start to the last request's end.
func runOpenLoop(h http.Handler, jobs []job, out []outcome, late []float64) time.Duration {
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := range jobs {
		due := start.Add(jobs[i].offset - jobs[0].offset)
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = call(h, jobs[i], due)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runBurst submits every job at once and returns the outcomes, the output
// tokens streamed and the makespan.
func runBurst(h http.Handler, jobs []job) ([]outcome, int, time.Duration) {
	var wg sync.WaitGroup
	out := make([]outcome, len(jobs))
	start := time.Now()
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = call(h, jobs[i], start)
		}()
	}
	wg.Wait()
	var end time.Time
	tokens := 0
	for _, o := range out {
		if o.end.After(end) {
			end = o.end
		}
		tokens += len(o.tokens)
	}
	return out, tokens, end.Sub(start)
}

// reservedKV reads reserved_kv_bytes from the server's /statusz.
func reservedKV(h http.Handler) int64 {
	req, err := http.NewRequest(http.MethodGet, "/statusz", nil)
	if err != nil {
		return 0
	}
	w := &lineWriter{hdr: http.Header{}}
	h.ServeHTTP(w, req)
	if len(w.lines) == 0 {
		return 0
	}
	var st struct {
		Reserved int64 `json:"reserved_kv_bytes"`
	}
	if json.Unmarshal(w.lines[0], &st) != nil {
		return 0
	}
	return st.Reserved
}

// verify checks every request's stream against its final line, the
// verified subset against solo decodes, and measures the served weights'
// perplexity on fixed random text. Solo decodes run on GOMAXPROCS workers, each
// with its own decoder.
func verify(rep *report, s *served, jobs []job, outs []outcome) (float64, error) {
	seen := [2]int{}
	var todo []int
	for i, j := range jobs {
		oo := &outs[i]
		if !oo.ok() {
			if j.verify {
				rep.checkf("verified request %s failed: status %d %s", j.id, oo.status, oo.errMsg)
			}
			continue
		}
		if len(oo.final) != len(j.prompt)+j.maxTokens || !intsEqual(oo.final[len(j.prompt):], oo.tokens) {
			rep.checkf("request %s: token lines %v disagree with final tokens %v", j.id, oo.tokens, oo.final)
			continue
		}
		if j.verify {
			seen[j.class]++
			todo = append(todo, i)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		rep.checkf("verified subset misses a class: %d prefill-heavy, %d generation-heavy", seen[0], seen[1])
	}

	rng := rand.New(rand.NewSource(modelSeed))
	seqs := make([][]int, servePPLSeqs)
	for i := range seqs {
		seqs[i] = make([]int, serveModel.MaxSeq)
		for k := range seqs[i] {
			seqs[i][k] = rng.Intn(serveModel.Vocab)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var firstErr error
	var nll float64
	var nTok int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := nn.NewDecoder(s.m)
			defer dec.Close()
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			if s.pm != nil {
				if err := dec.SetPacked(s.pm); err != nil {
					fail(fmt.Errorf("solo packed decoder: %w", err))
					return
				}
			}
			for k := w; k < len(todo); k += workers {
				j, oo := jobs[todo[k]], outs[todo[k]]
				solo, err := dec.Generate(j.prompt, nn.SampleConfig{
					Temperature: serveTemp, TopK: serveTopK, MaxTokens: j.maxTokens, Seed: j.seed,
				})
				if err != nil {
					fail(fmt.Errorf("solo decode of %s: %w", j.id, err))
					return
				}
				if !intsEqual(solo[len(j.prompt):], oo.tokens) {
					mu.Lock()
					rep.checkf("request %s: served tokens %v differ from solo decode %v", j.id, oo.tokens, solo[len(j.prompt):])
					mu.Unlock()
				}
			}
			for k := w; k < len(seqs); k += workers {
				sum, n, err := teacherForcedNLL(dec, seqs[k])
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				nll += sum
				nTok += n
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	rep.notef("verified %d requests (%d prefill-heavy, %d generation-heavy) token-for-token against solo decodes", len(todo), seen[0], seen[1])
	return math.Exp(nll / float64(nTok)), nil
}

// teacherForcedNLL feeds seq through dec one token at a time and sums the
// negative log-likelihood of each next token.
func teacherForcedNLL(dec *nn.Decoder, seq []int) (float64, int, error) {
	dec.Reset()
	var sum float64
	for i := 0; i+1 < len(seq); i++ {
		logits, err := dec.Step(seq[i])
		if err != nil {
			return 0, 0, fmt.Errorf("perplexity decode: %w", err)
		}
		mx := logits[0]
		for _, v := range logits {
			mx = max(mx, v)
		}
		var z float64
		for _, v := range logits {
			z += math.Exp(float64(v - mx))
		}
		sum += math.Log(z) + float64(mx) - float64(logits[seq[i+1]])
	}
	return sum, len(seq) - 1, nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
