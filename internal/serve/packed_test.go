package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// TestPackedArtifactInRegistry422 pins what happens when a packed-weight
// artifact (quant's ELLMPKD1 format) lands in the adapter registry
// directory — an easy operator mistake, since both artifact families live
// in flat per-tenant files. The registry must surface it as a corrupt
// adapter: a typed *CorruptAdapterError from Acquire and a clean 422 from
// the HTTP front end, never a panic or a 500.
func TestPackedArtifactInRegistry422(t *testing.T) {
	m := testModel(404)
	dir := t.TempDir()
	p := quant.Pack(tensor.NewRNG(3).Normal(0, 1, 16, 16), 4)
	err := artifact.WriteFile(filepath.Join(dir, "tenant-pkd"), func(w io.Writer) error {
		_, err := p.WriteTo(w)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(dir, 2)
	_, err = reg.Acquire("tenant-pkd")
	var corrupt *CorruptAdapterError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Acquire on a packed artifact returned %v, want *CorruptAdapterError", err)
	}

	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 4, Registry: NewRegistry(dir, 2)})
	resp, body := postGenerate(t, ts, generateRequest{
		ID: "p1", Adapter: "tenant-pkd", Prompt: []int{1}, MaxTokens: 2,
	}, nil)
	wantError(t, resp, body, http.StatusUnprocessableEntity, "adapter_corrupt")
}

// TestSchedulerPackedDecodeMatchesFakeQuant pins the serving stack on top
// of packed execution: greedy tokens scheduled through a packed decoder
// must be identical to a solo decoder over the Unpack()-materialized
// weights, and a request naming an adapter must be rejected cleanly (the
// packed decoder is base-model-only).
func TestSchedulerPackedDecodeMatchesFakeQuant(t *testing.T) {
	const seed = 405
	m := testModel(seed)
	specs := []nn.PackSpec{{Bits: 4}, {Bits: 3}}
	pm, err := nn.PackModel(m, specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: same seed, block weights overwritten with the packed
	// decode targets.
	ref := testModel(seed)
	for l, blk := range ref.Blocks {
		for wi, w := range blk.WeightMatrices() {
			if mat := pm.Mat(l, wi); mat != nil {
				w.CopyFrom(mat.(interface{ Unpack() *tensor.Tensor }).Unpack())
			}
		}
	}
	prompt := []int{3, 4, 5}
	scfg := nn.SampleConfig{MaxTokens: 6}
	want := soloGenerate(t, ref, prompt, scfg)

	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	if err := dec.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	sched := New(dec)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- sched.Serve(ctx) }()
	defer func() { cancel(); <-serveDone }()

	st, err := sched.Submit(Request{ID: "pk1", Prompt: prompt, Cfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	<-st.Done()
	res := st.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tokensEqual(t, "packed serve vs fake-quant solo", res.Tokens, want)
}
