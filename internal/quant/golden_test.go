package quant

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenPacked loads the uniform and NF packed matrices written by an
// earlier release. ReadPackedFrom and WriteTo must both report the file's
// exact length, and WriteTo must reproduce it byte for byte.
func TestGoldenPacked(t *testing.T) {
	for _, name := range []string{"packed_uniform.pkd", "packed_nf.pkd"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		m, n, err := ReadPackedFrom(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != int64(len(raw)) {
			t.Fatalf("%s: ReadPackedFrom reported %d bytes, file has %d", name, n, len(raw))
		}
		var buf bytes.Buffer
		wrote, err := m.(io.WriterTo).WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wrote != int64(len(raw)) || !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("%s: WriteTo produced %d bytes that differ from the golden file", name, wrote)
		}
	}
}
