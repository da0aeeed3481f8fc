package artifact_test

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

var testMagic = [8]byte{'E', 'L', 'L', 'M', 'T', 'E', 'S', 'T'}

type testHeader struct {
	Name string `json:"name"`
}

// envelope frames a header and a raw body the way every format does.
func envelope(t *testing.T, name string, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := artifact.NewWriter(&buf, "test", testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(testHeader{Name: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.N() != int64(buf.Len()) {
		t.Fatalf("Writer.N() = %d, wrote %d bytes", w.N(), buf.Len())
	}
	return buf.Bytes()
}

// readEnvelope reads back an envelope written by envelope.
func readEnvelope(raw []byte, bodyLen int) (string, []byte, int64, error) {
	r, err := artifact.NewReader(bytes.NewReader(raw), "test", testMagic)
	if err != nil {
		return "", nil, 0, err
	}
	var hdr testHeader
	if err := r.ReadHeader(&hdr); err != nil {
		return "", nil, 0, err
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return "", nil, 0, err
	}
	if err := r.Verify(); err != nil {
		return "", nil, 0, err
	}
	return hdr.Name, body, r.N(), nil
}

func TestEnvelopeRoundTrip(t *testing.T) {
	body := []byte("payload bytes")
	raw := envelope(t, "rt", body)
	name, got, n, err := readEnvelope(raw, len(body))
	if err != nil {
		t.Fatal(err)
	}
	if name != "rt" || !bytes.Equal(got, body) {
		t.Fatalf("round trip gave %q/%q", name, got)
	}
	if n != int64(len(raw)) {
		t.Fatalf("Reader.N() = %d, artifact has %d bytes", n, len(raw))
	}
	if _, err := artifact.NewReader(bytes.NewReader(raw), "test", [8]byte{'E', 'L', 'L', 'M', 'O', 'T', 'H', 'R'}); err == nil {
		t.Fatal("a foreign magic was accepted")
	}
}

// TestEnvelopeRejectsEveryFlipAndTruncation: the footer must catch a
// flipped bit anywhere in the artifact and a cut at any length.
func TestEnvelopeRejectsEveryFlipAndTruncation(t *testing.T) {
	body := []byte("some body bytes")
	raw := envelope(t, "flip", body)
	for bit := 0; bit < 8*len(raw); bit++ {
		bad := append([]byte(nil), raw...)
		fault.FlipBit(bad, bit)
		if _, _, _, err := readEnvelope(bad, len(body)); err == nil {
			t.Fatalf("bit flip at %d was accepted", bit)
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, _, _, err := readEnvelope(raw[:cut], len(body)); err == nil {
			t.Fatalf("truncation at %d was accepted", cut)
		}
	}
}

func TestReadHeaderRejectsOversizedLength(t *testing.T) {
	raw := append(testMagic[:], 0xff, 0xff, 0xff, 0x7f)
	r, err := artifact.NewReader(bytes.NewReader(raw), "test", testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReadHeader(&testHeader{}); err == nil {
		t.Fatal("a 2 GiB header length was accepted")
	}
}

// TestWriteFileCleansUpOnFailure checks that a write failing
// mid-checkpoint (injected via fault.FailNthWriter) surfaces as an error,
// produces no destination file, and leaves no temp litter.
func TestWriteFileCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	cfg := nn.Config{Vocab: 17, Dim: 16, Heads: 4, Layers: 3, Hidden: 32, MaxSeq: 8, ExitHeads: true}
	m := nn.NewModel(cfg, tensor.NewRNG(70))
	err := artifact.WriteFile(path, func(w io.Writer) error {
		return m.Save(&fault.FailNthWriter{W: w, N: 3})
	})
	if err == nil {
		t.Fatal("injected write failure must surface")
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("failed atomic write created the destination file")
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 0 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestWriteFilePackedArtifact writes a packed weight artifact into a
// registry-style directory and reads it back.
func TestWriteFilePackedArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.packed")
	p := quant.Pack(tensor.NewRNG(1).Normal(0, 0.5, 8, 8), 4)
	err := artifact.WriteFile(path, func(w io.Writer) error {
		_, err := p.WriteTo(w)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, _, err := quant.ReadPackedFrom(bufio.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if r, c := m.Dims(); r != 8 || c != 8 {
		t.Fatalf("read dims (%d,%d)", r, c)
	}
	// No temp litter after a successful write.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("registry dir has %d entries, want 1", len(ents))
	}
}
