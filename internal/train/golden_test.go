package train

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenSnapshot loads a snapshot written by an earlier release and
// requires WriteSnapshot of the restored loop to reproduce it byte for
// byte, nested checkpoint included.
func TestGoldenSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden/snapshot.snap")
	if err != nil {
		t.Fatal(err)
	}
	l, err := ReadSnapshot(bytes.NewReader(raw), loopTrainer(), LoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, l), raw) {
		t.Fatal("re-written snapshot differs from the golden file")
	}
}
