package nn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/tensor"
)

func TestCheckpointRoundtrip(t *testing.T) {
	orig := tinyModel(60)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cfg != orig.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", back.Cfg, orig.Cfg)
	}
	op, bp := orig.Params(), back.Params()
	if len(op) != len(bp) {
		t.Fatal("param count mismatch")
	}
	for i := range op {
		if op[i].Name != bp[i].Name {
			t.Fatalf("param %d name %q vs %q", i, op[i].Name, bp[i].Name)
		}
		if !tensor.AllClose(op[i].Value.Data, bp[i].Value.Data, 0, 0) {
			t.Fatalf("param %s differs after roundtrip", op[i].Name)
		}
	}
	// The loaded model must compute identical logits.
	a := orig.Logits(batch2x4())
	b := back.Logits(batch2x4())
	if !tensor.AllClose(a.Data, b.Data, 0, 0) {
		t.Fatal("loaded model computes different logits")
	}
}

func TestCheckpointTiedExits(t *testing.T) {
	cfg := tinyConfig()
	cfg.TieExitHeads = true
	orig := NewModel(cfg, tensor.NewRNG(61))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Exits[0].Proj != back.LMHead {
		t.Fatal("tied exits must stay tied after load")
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	orig := tinyModel(62)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := orig.Logits(batch2x4())
	b := back.Logits(batch2x4())
	if !tensor.AllClose(a.Data, b.Data, 0, 0) {
		t.Fatal("file roundtrip changed the model")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("definitely not a checkpoint file at all"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	orig := tinyModel(63)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated checkpoint must be rejected")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/model.ckpt"); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadRejectsEveryTruncation cuts the checkpoint at a sweep of prefix
// lengths; every cut must fail with an error, never panic or load.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(64).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := []int{0, 1, 7, 8, 9, 11, 12, len(full) - 1, len(full) - 4, len(full) - 8, len(full) - 9}
	for c := 13; c < len(full); c += 31 {
		cuts = append(cuts, c)
	}
	for _, c := range cuts {
		if _, err := Load(bytes.NewReader(full[:c])); err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", c, len(full))
		}
	}
}

// TestLoadRejectsBitFlips flips single bits across the whole container —
// densely through the magic, header length, and header; strided through
// the tensor payload; densely through the footer — and requires every flip
// to surface as a load error (the acceptance criterion: a checkpoint with
// any flipped bit must never load).
func TestLoadRejectsBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(65).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	var bits []int
	// Magic, header length, and the start of the JSON header.
	for b := 0; b < 8*96 && b < 8*len(full); b++ {
		bits = append(bits, b)
	}
	// Strided sweep over the rest of the body.
	stride := 101
	if testing.Short() {
		stride = 1009
	}
	for b := 8 * 96; b < 8*(len(full)-8); b += stride {
		bits = append(bits, b)
	}
	// Entire footer (marker + checksum).
	for b := 8 * (len(full) - 8); b < 8*len(full); b++ {
		bits = append(bits, b)
	}
	for _, bit := range bits {
		corrupt := append([]byte(nil), full...)
		fault.FlipBit(corrupt, bit)
		m, err := Load(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("bit flip at bit %d (byte %d) loaded successfully", bit, bit/8)
		}
		if m != nil {
			t.Fatalf("bit flip at bit %d returned a model alongside the error", bit)
		}
	}
}

// TestLoadRejectsSeededRandomFlips complements the strided sweep with
// seeded uniform flips, so payload bytes the stride skips still get
// coverage across runs of the suite.
func TestLoadRejectsSeededRandomFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(66).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	c := fault.NewCorrupter(42)
	for i := 0; i < 200; i++ {
		corrupt := append([]byte(nil), full...)
		bit := c.FlipRandomBit(corrupt)
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("random flip %d (bit %d) loaded successfully", i, bit)
		}
	}
}

// TestLoadChecksumErrorIsDiagnostic: payload corruption that leaves the
// structure parseable must be reported as a checksum mismatch, pointing
// the operator at file damage rather than a code bug.
func TestLoadChecksumErrorIsDiagnostic(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(67).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip a low-order mantissa bit deep in the tensor payload: every
	// framing field still parses, so only the checksum can catch it.
	fault.FlipBit(full, 8*(len(full)-64))
	_, err := Load(bytes.NewReader(full))
	if err == nil {
		t.Fatal("payload corruption loaded successfully")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %q does not mention the checksum", err)
	}
}

// TestSaveFileAtomicPreservesOldCheckpoint: a failed save must leave the
// previous checkpoint intact (the whole point of write-temp-fsync-rename).
func TestSaveFileAtomicPreservesOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	orig := tinyModel(68)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A save into a read-only directory fails after the temp create; the
	// existing checkpoint must be untouched and no temp litter left behind.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := tinyModel(69).SaveFile(path); err == nil {
		t.Skip("filesystem permits writes in read-only dir (running as root?)")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save corrupted the existing checkpoint")
	}
}

// hostileCheckpoint frames a checkpoint whose header carries cfg and names
// but no tensors, with a valid footer.
func hostileCheckpoint(t *testing.T, cfg Config, names []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := artifact.NewWriter(&buf, "test", checkpointMagicV2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(checkpointHeader{Config: cfg, Names: names}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsHostileConfig: a header whose config implies the wrong
// tensor count, or a tensor above the element ceiling, must fail before
// the model is built, not panic in makeslice or exhaust memory.
func TestLoadRejectsHostileConfig(t *testing.T) {
	names := make([]string, len(NewModel(Config{Vocab: 2, Dim: 4, Heads: 1, Layers: 1, Hidden: 4, MaxSeq: 4}, tensor.NewRNG(0)).Params()))
	for _, tc := range []struct {
		cfg   Config
		names []string
	}{
		{Config{Vocab: 1 << 45, Dim: 4, Heads: 1, Layers: 1, Hidden: 4, MaxSeq: 4}, nil},
		{Config{Vocab: 1 << 45, Dim: 4, Heads: 1, Layers: 1, Hidden: 4, MaxSeq: 4}, names},
		{Config{Vocab: 1 << 62, Dim: 4, Heads: 1, Layers: 1, Hidden: 4, MaxSeq: 4}, names},
		{Config{Vocab: 2, Dim: 4, Heads: 1, Layers: 1, Hidden: 1 << 40, MaxSeq: 4}, names},
		{Config{Vocab: 2, Dim: 4, Heads: 1, Layers: 1 << 40, Hidden: 4, MaxSeq: 4}, names},
	} {
		if _, err := Load(bytes.NewReader(hostileCheckpoint(t, tc.cfg, tc.names))); err == nil {
			t.Fatalf("config %+v with %d names loaded", tc.cfg, len(tc.names))
		}
	}
}

// TestCheckImpliedMatchesNewModel pins checkImplied's tensor count to the
// architecture NewModel actually builds.
func TestCheckImpliedMatchesNewModel(t *testing.T) {
	for layers := 1; layers <= 3; layers++ {
		for _, exits := range [][2]bool{{false, false}, {true, false}, {true, true}} {
			cfg := Config{Vocab: 5, Dim: 4, Heads: 2, Layers: layers, Hidden: 6, MaxSeq: 3,
				ExitHeads: exits[0], TieExitHeads: exits[1]}
			n := len(NewModel(cfg, tensor.NewRNG(0)).Params())
			if err := cfg.checkImplied(n); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			if err := cfg.checkImplied(n + 1); err == nil {
				t.Fatalf("%+v: accepted %d tensors, NewModel builds %d", cfg, n+1, n)
			}
		}
	}
}

// TestLoadV1Checkpoint builds a v1 checkpoint (no footer) from a v2 save
// and requires it to load bit-identically, and every shorter cut to fail.
func TestLoadV1Checkpoint(t *testing.T) {
	v2 := readGolden(t, "checkpoint_v2.ckpt")
	orig, err := Load(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	v1 := append(checkpointMagicV1[:], v2[8:len(v2)-8]...)
	back, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	op, bp := orig.Params(), back.Params()
	for i := range op {
		a, b := op[i].Value.Data.Data, bp[i].Value.Data.Data
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("%s[%d] differs after v1 load", op[i].Name, j)
			}
		}
	}
	for cut := 0; cut < len(v1); cut++ {
		if _, err := Load(bytes.NewReader(v1[:cut])); err == nil {
			t.Fatalf("v1 checkpoint cut at %d of %d bytes loaded", cut, len(v1))
		}
	}
}
