package artifact_test

import (
	"bytes"
	"io"
	"os"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/train"
)

// The fuzz targets below cover every decoder of the envelope. Each is
// seeded from the golden artifacts of the package that owns the format,
// and decodes each input twice: as given, and resealed with a correct
// footer so that mutations also reach the parser behind the checksum.
// A clean error and a success are the only acceptable outcomes; a panic,
// or a success that breaks the decoder's contract, fails the target.
// testdata/fuzz holds the hostile inputs that once got past the checksum.

func addGolden(f *testing.F, paths ...string) {
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
}

// decodeBoth runs decode on data and on data resealed with a correct
// footer over everything before its last 8 bytes.
func decodeBoth(t *testing.T, data []byte, decode func(*testing.T, []byte)) {
	decode(t, data)
	if len(data) < 16 {
		return
	}
	var buf bytes.Buffer
	w, err := artifact.NewWriter(&buf, "fuzz", [8]byte(data[:8]))
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data[8 : len(data)-8])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	decode(t, buf.Bytes())
}

func FuzzLoad(f *testing.F) {
	addGolden(f, "../nn/testdata/golden/checkpoint_v2.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBoth(t, data, func(t *testing.T, b []byte) {
			m, err := nn.Load(bytes.NewReader(b))
			if err == nil && m == nil {
				t.Fatal("Load returned neither a model nor an error")
			}
		})
	})
}

func FuzzLoadAdapter(f *testing.F) {
	addGolden(f, "../nn/testdata/golden/adapter.adp")
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBoth(t, data, func(t *testing.T, b []byte) {
			a, err := nn.LoadAdapter(bytes.NewReader(b))
			if err == nil && a == nil {
				t.Fatal("LoadAdapter returned neither an adapter nor an error")
			}
		})
	})
}

func FuzzReadSnapshot(f *testing.F) {
	addGolden(f, "../train/testdata/golden/snapshot.snap")
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBoth(t, data, func(t *testing.T, b []byte) {
			tr := train.NewTrainer(train.NewAdamW(0.01), 0.01, 1.0)
			l, err := train.ReadSnapshot(bytes.NewReader(b), tr, train.LoopConfig{})
			if err == nil && (l == nil || l.Model == nil) {
				t.Fatal("ReadSnapshot returned neither a loop nor an error")
			}
		})
	})
}

func FuzzReadPackedFrom(f *testing.F) {
	addGolden(f, "../quant/testdata/golden/packed_uniform.pkd", "../quant/testdata/golden/packed_nf.pkd")
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBoth(t, data, func(t *testing.T, b []byte) {
			m, n, err := quant.ReadPackedFrom(bytes.NewReader(b))
			if err != nil {
				return
			}
			if n > int64(len(b)) {
				t.Fatalf("ReadPackedFrom reported %d bytes from a %d-byte input", n, len(b))
			}
			// A decoded matrix must re-encode to exactly the bytes read.
			var buf bytes.Buffer
			if _, err := m.(io.WriterTo).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), b[:n]) {
				t.Fatal("decoded packed matrix does not re-encode to its input")
			}
		})
	})
}
