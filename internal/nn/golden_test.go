package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The artifacts under testdata/golden were written by an earlier release.
// Each must still load, and re-saving the loaded value must reproduce the
// file byte for byte, so the on-disk formats cannot drift unnoticed.

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestGoldenCheckpoint(t *testing.T) {
	raw := readGolden(t, "checkpoint_v2.ckpt")
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("re-saved checkpoint differs from the golden file")
	}
}

func TestGoldenAdapter(t *testing.T) {
	raw := readGolden(t, "adapter.adp")
	a, err := LoadAdapter(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("re-saved adapter differs from the golden file")
	}
}
