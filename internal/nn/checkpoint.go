package nn

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// Checkpoint format v2 is an artifact envelope (see package artifact)
// with magic "ELLMCKP2" and body:
//
//	JSON header | tensors in header order (tensor.WriteTo framing)
//
// Format v1 ("ELLMCKP1") is the same without the footer; it remains
// loadable for checkpoints written before the footer existed.
var (
	checkpointMagicV2 = [8]byte{'E', 'L', 'L', 'M', 'C', 'K', 'P', '2'}
	checkpointMagicV1 = [8]byte{'E', 'L', 'L', 'M', 'C', 'K', 'P', '1'}
)

// checkpointHeader is the JSON header preceding the tensor payload.
type checkpointHeader struct {
	Config Config   `json:"config"`
	Names  []string `json:"names"`
}

// Save serialises the model (config + every named parameter) to w in
// checkpoint format v2.
func (m *Model) Save(w io.Writer) error {
	params := m.Params()
	hdr := checkpointHeader{Config: m.Cfg}
	for _, p := range params {
		hdr.Names = append(hdr.Names, p.Name)
	}
	aw, err := artifact.NewWriter(w, "nn: checkpoint", checkpointMagicV2)
	if err != nil {
		return err
	}
	if err := aw.WriteHeader(hdr); err != nil {
		return err
	}
	for _, p := range params {
		if _, err := p.Value.Data.WriteTo(aw); err != nil {
			return fmt.Errorf("nn: write %s: %w", p.Name, err)
		}
	}
	return aw.Close()
}

// Load reads a checkpoint written by Save, rebuilding the model from the
// stored config and filling in every parameter. The config is checked
// against the stored tensor list before the model is built, name order
// and shapes are verified against the built architecture, and for v2
// checkpoints the footer is verified before the model is returned, so a
// truncated or bit-flipped file can never load successfully.
func Load(r io.Reader) (*Model, error) {
	ar, err := artifact.NewReader(r, "nn: checkpoint", checkpointMagicV2, checkpointMagicV1)
	if err != nil {
		return nil, err
	}
	var hdr checkpointHeader
	if err := ar.ReadHeader(&hdr); err != nil {
		return nil, err
	}
	if err := hdr.Config.Validate(); err != nil {
		return nil, fmt.Errorf("nn: checkpoint config invalid: %w", err)
	}
	if err := hdr.Config.checkImplied(len(hdr.Names)); err != nil {
		return nil, err
	}
	m := NewModel(hdr.Config, tensor.NewRNG(0))
	for i, p := range m.Params() {
		if p.Name != hdr.Names[i] {
			return nil, fmt.Errorf("nn: checkpoint tensor %d is %q, expected %q",
				i, hdr.Names[i], p.Name)
		}
		t, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("nn: read %s: %w", p.Name, err)
		}
		if !t.SameShape(p.Value.Data) {
			return nil, fmt.Errorf("nn: %s has shape %v, expected %v",
				p.Name, t.Shape, p.Value.Data.Shape)
		}
		p.Value.Data.CopyFrom(t)
	}
	if ar.Magic() == checkpointMagicV2 { // v1 has no footer
		if err := ar.Verify(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkImplied rejects a config that does not imply exactly n parameter
// tensors, or that implies one above tensor.MaxReadElems. Either would
// fail at tensor.ReadFrom anyway; checking first keeps NewModel from
// allocating whatever an unverified header asks for.
func (c Config) checkImplied(n int) error {
	perLayer := 9 // norm1, wq, wk, wv, wo, norm2, gate, up, down
	if c.ExitHeads {
		perLayer++ // exit norm
		if !c.TieExitHeads {
			perLayer++ // exit projection
		}
	}
	// tok, pos, norm and lmhead, plus the per-layer tensors.
	if c.Layers > n || 4+c.Layers*perLayer != n {
		return fmt.Errorf("nn: checkpoint lists %d tensors, config %+v implies another count", n, c)
	}
	for _, d := range [][2]int{{c.Vocab, c.Dim}, {c.MaxSeq, c.Dim}, {c.Dim, c.Dim}, {c.Dim, c.Hidden}} {
		if d[0] > tensor.MaxReadElems/d[1] {
			return fmt.Errorf("nn: checkpoint config implies a (%d,%d) tensor, above the %d-element limit",
				d[0], d[1], tensor.MaxReadElems)
		}
	}
	return nil
}

// SaveFile writes the model checkpoint to a file path atomically
// (artifact.WriteFile): an interrupted save never clobbers an existing
// good checkpoint with a partial one.
func (m *Model) SaveFile(path string) error {
	return artifact.WriteFile(path, m.Save)
}

// LoadFile reads a model checkpoint from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}
