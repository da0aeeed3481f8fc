package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/tensor"
)

func adapterTestModel(seed int64) *Model {
	cfg := Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24}
	return NewModel(cfg, tensor.NewRNG(seed))
}

func buildAdapter(t *testing.T, name string, seed int64, cfg Config) *Adapter {
	t.Helper()
	g := tensor.NewRNG(seed)
	a, err := NewAdapter(name, 8, []AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, cfg.Dim, 3), B: g.Normal(0, 0.1, 3, cfg.Dim)},
		{Target: "block1.gate", A: g.Normal(0, 0.1, cfg.Dim, 3), B: g.Normal(0, 0.1, 3, cfg.Hidden)},
		{Target: "lmhead", A: g.Normal(0, 0.1, cfg.Dim, 3), B: g.Normal(0, 0.1, 3, cfg.Vocab)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdapterRoundTrip(t *testing.T) {
	m := adapterTestModel(21)
	a := buildAdapter(t, "rt", 5, m.Cfg)
	path := filepath.Join(t.TempDir(), "rt")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAdapterFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "rt" || b.Rank() != 3 || b.Alpha() != 8 {
		t.Fatalf("loaded adapter = %s rank %d alpha %v, want rt/3/8", b.Name(), b.Rank(), b.Alpha())
	}
	if len(b.Targets()) != 3 || b.Targets()[0] != "block0.wq" {
		t.Fatalf("loaded targets = %v", b.Targets())
	}
	// The loaded adapter must generate identically to the original.
	prompt := []int{1, 2, 3}
	cfg := SampleConfig{MaxTokens: 6}
	dec := NewDecoder(m)
	defer dec.Close()
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	orig, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetAdapter(b); err != nil {
		t.Fatal(err)
	}
	loaded, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i] != loaded[i] {
			t.Fatalf("loaded adapter diverged at token %d: %v vs %v", i, loaded, orig)
		}
	}
}

// TestAdapterCorruptionDetected flips one random bit (and separately
// truncates) a saved artifact: load must fail with a diagnostic error and
// never panic.
func TestAdapterCorruptionDetected(t *testing.T) {
	m := adapterTestModel(22)
	a := buildAdapter(t, "corrupt", 6, m.Cfg)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	c := fault.NewCorrupter(99)
	for trial := 0; trial < 16; trial++ {
		bad := append([]byte(nil), good...)
		c.FlipRandomBit(bad)
		if _, err := LoadAdapter(bytes.NewReader(bad)); err == nil {
			t.Fatalf("trial %d: bit-flipped artifact loaded successfully", trial)
		}
	}
	for trial := 0; trial < 16; trial++ {
		bad := c.Truncate(append([]byte(nil), good...))
		if _, err := LoadAdapter(bytes.NewReader(bad)); err == nil {
			t.Fatalf("trial %d: truncated artifact loaded successfully", trial)
		}
	}
	// Hostile header: claims an enormous target count.
	if _, err := LoadAdapter(strings.NewReader("ELLMADP1\xff\xff\xff\xff")); err == nil {
		t.Fatal("hostile header length loaded")
	}
}

// TestSetAdapterRestoreExact pins the apply/unapply contract: applying an
// adapter changes the model weights, removing it restores every touched
// weight bitwise, and swapping adapters never double-applies.
func TestSetAdapterRestoreExact(t *testing.T) {
	m := adapterTestModel(23)
	a := buildAdapter(t, "a", 7, m.Cfg)
	b := buildAdapter(t, "b", 8, m.Cfg)

	pristine := map[string][]float32{
		"wq":     append([]float32(nil), m.Blocks[0].Attn.Wq.W.Data.Data...),
		"gate":   append([]float32(nil), m.Blocks[1].MLP.Gate.W.Data.Data...),
		"lmhead": append([]float32(nil), m.LMHead.W.Data.Data...),
	}
	checkPristine := func(stage string, want bool) {
		t.Helper()
		same := true
		for name, saved := range pristine {
			var cur []float32
			switch name {
			case "wq":
				cur = m.Blocks[0].Attn.Wq.W.Data.Data
			case "gate":
				cur = m.Blocks[1].MLP.Gate.W.Data.Data
			case "lmhead":
				cur = m.LMHead.W.Data.Data
			}
			for i := range saved {
				if cur[i] != saved[i] {
					same = false
				}
			}
		}
		if same != want {
			t.Fatalf("%s: weights pristine = %v, want %v", stage, same, want)
		}
	}

	dec := NewDecoder(m)
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	if dec.Adapter() != a {
		t.Fatal("Adapter() does not report the applied adapter")
	}
	checkPristine("after apply", false)
	if err := dec.SetAdapter(b); err != nil {
		t.Fatal(err)
	}
	checkPristine("after swap", false)
	if err := dec.SetAdapter(nil); err != nil {
		t.Fatal(err)
	}
	checkPristine("after restore", true)
	if dec.Adapter() != nil {
		t.Fatal("Adapter() non-nil after restore")
	}
	// Re-apply then Close must also restore (shared models stay clean).
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	dec.Close()
	checkPristine("after Close", true)
}

// TestSetAdapterValidatesBeforeMutating: a mismatched adapter must fail
// without touching any weight.
func TestSetAdapterValidatesBeforeMutating(t *testing.T) {
	m := adapterTestModel(24)
	g := tensor.NewRNG(1)
	// Second target is bogus: first target's weights must not be patched.
	bad, err := NewAdapter("bad", 4, []AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, m.Cfg.Dim, 2), B: g.Normal(0, 0.1, 2, m.Cfg.Dim)},
		{Target: "block9.wq", A: g.Normal(0, 0.1, m.Cfg.Dim, 2), B: g.Normal(0, 0.1, 2, m.Cfg.Dim)},
	})
	if err != nil {
		t.Fatal(err)
	}
	wrongShape, err := NewAdapter("shape", 4, []AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, m.Cfg.Dim+1, 2), B: g.Normal(0, 0.1, 2, m.Cfg.Dim)},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float32(nil), m.Blocks[0].Attn.Wq.W.Data.Data...)
	dec := NewDecoder(m)
	defer dec.Close()
	for _, a := range []*Adapter{bad, wrongShape} {
		if err := dec.SetAdapter(a); err == nil {
			t.Fatalf("adapter %s applied despite invalid target", a.Name())
		}
		if dec.Adapter() != nil {
			t.Fatal("failed SetAdapter left an adapter installed")
		}
	}
	for i, v := range m.Blocks[0].Attn.Wq.W.Data.Data {
		if v != before[i] {
			t.Fatal("failed SetAdapter mutated weights")
		}
	}
}

// TestAdapterChangesGeneration sanity-checks that a non-trivial adapter
// actually alters decoding (otherwise the grouping tests prove nothing).
func TestAdapterChangesGeneration(t *testing.T) {
	m := adapterTestModel(25)
	a := buildAdapter(t, "strong", 9, m.Cfg)
	prompt := []int{4, 5, 6}
	cfg := SampleConfig{MaxTokens: 8}
	dec := NewDecoder(m)
	defer dec.Close()
	base, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	adapted, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range base {
		if base[i] != adapted[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("adapter had no effect on generation: %v", base)
	}
}

// TestAdapterExitHeadTargets covers exit-head targeting: valid on untied
// exits, rejected on tied ones and out-of-range indices.
func TestAdapterExitHeadTargets(t *testing.T) {
	g := tensor.NewRNG(3)
	cfg := Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24, ExitHeads: true}
	m := NewModel(cfg, tensor.NewRNG(26))
	a, err := NewAdapter("exit", 2, []AdapterPair{
		{Target: "exit0", A: g.Normal(0, 0.1, cfg.Dim, 2), B: g.Normal(0, 0.1, 2, cfg.Vocab)},
	})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(m)
	if err := dec.SetAdapter(a); err != nil {
		t.Fatalf("exit-head adapter rejected: %v", err)
	}
	dec.Close()

	tied := NewModel(Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24,
		ExitHeads: true, TieExitHeads: true}, tensor.NewRNG(27))
	decTied := NewDecoder(tied)
	defer decTied.Close()
	if err := decTied.SetAdapter(a); err == nil {
		t.Fatal("tied exit head accepted an exit adapter")
	}
}

// TestAdapterArtifactOnDiskCorruption is the end-to-end registry scenario:
// corrupt the file in place, loading must fail cleanly.
func TestAdapterArtifactOnDiskCorruption(t *testing.T) {
	m := adapterTestModel(28)
	a := buildAdapter(t, "disk", 10, m.Cfg)
	path := filepath.Join(t.TempDir(), "disk")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fault.NewCorrupter(7).FlipRandomBit(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAdapterFile(path); err == nil {
		t.Fatal("corrupted on-disk artifact loaded")
	}
}

// TestLoadAdapterRejectsHugeDelta: a well-formed rank-1 artifact whose
// dense delta A·B would hold 2^29 elements (2 GiB) must fail with an
// error instead of allocating it.
func TestLoadAdapterRejectsHugeDelta(t *testing.T) {
	A, B := tensor.New(32768, 1), tensor.New(1, 16384)
	if _, err := NewAdapter("huge", 1, []AdapterPair{{Target: "lmhead", A: A, B: B}}); err == nil {
		t.Fatal("NewAdapter accepted a 2^29-element delta")
	}
	var buf bytes.Buffer
	w, err := artifact.NewWriter(&buf, "test", adapterMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(adapterHeader{Name: "huge", Alpha: 1, Rank: 1, Targets: []string{"lmhead"}}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []*tensor.Tensor{A, B} {
		if _, err := x.WriteTo(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAdapter(&buf); err == nil {
		t.Fatal("LoadAdapter accepted a 2^29-element delta")
	}
}
