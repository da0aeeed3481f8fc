package nn

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// Adapter artifact format: an artifact envelope (see package artifact)
// with magic "ELLMADP1" and body:
//
//	JSON header {name, alpha, rank, targets[]} | per target: A then B
//	tensor (tensor.WriteTo framing)
//
// A corrupt adapter can never be applied to a serving model, and loading
// never panics on hostile bytes.
var adapterMagic = [8]byte{'E', 'L', 'L', 'M', 'A', 'D', 'P', '1'}

// adapterHeader is the JSON header preceding the low-rank tensor payload.
type adapterHeader struct {
	Name    string   `json:"name"`
	Alpha   float32  `json:"alpha"`
	Rank    int      `json:"rank"`
	Targets []string `json:"targets"`
}

// AdapterPair is one low-rank factor pair targeting a named model linear.
// Target names follow the adapt.LoRASet convention —
// "block<N>.{wq,wk,wv,wo,gate,up,down}" — plus "lmhead" and "exit<N>" for
// per-tenant output (exit) heads. A has shape (in, rank), B (rank, out).
type AdapterPair struct {
	Target string
	A, B   *tensor.Tensor
}

// Adapter is an inference-time low-rank weight patch: a named set of dense
// deltas scale·A·B, one per target linear, applied to model weights by
// Decoder.SetAdapter and removed bitwise-exactly when the next adapter (or
// nil) is set. Adapters are immutable after construction and safe to share
// across decoders; the scheduler groups streams by adapter pointer identity.
type Adapter struct {
	name  string
	alpha float32
	rank  int
	pairs []AdapterPair

	// deltas[i] = alpha/rank · pairs[i].A · pairs[i].B, precomputed at
	// construction so applying an adapter is a single AddInPlace per target.
	deltas []*tensor.Tensor
}

// NewAdapter builds an adapter from low-rank pairs, precomputing the dense
// per-target deltas. Every A must be (in, rank) and B (rank, out) with one
// consistent rank, and no delta may exceed tensor.MaxReadElems elements;
// target names must be non-empty and unique.
func NewAdapter(name string, alpha float32, pairs []AdapterPair) (*Adapter, error) {
	if name == "" {
		return nil, fmt.Errorf("nn: adapter needs a name")
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("nn: adapter %s has no target pairs", name)
	}
	rank := 0
	seen := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		if p.Target == "" {
			return nil, fmt.Errorf("nn: adapter %s has a pair with an empty target", name)
		}
		if seen[p.Target] {
			return nil, fmt.Errorf("nn: adapter %s targets %s twice", name, p.Target)
		}
		seen[p.Target] = true
		if p.A == nil || p.B == nil || p.A.Rank() != 2 || p.B.Rank() != 2 {
			return nil, fmt.Errorf("nn: adapter %s target %s: A and B must be rank-2 tensors", name, p.Target)
		}
		r := p.A.Cols()
		if r < 1 || p.B.Rows() != r {
			return nil, fmt.Errorf("nn: adapter %s target %s: A is (%d,%d) but B is (%d,%d)",
				name, p.Target, p.A.Rows(), p.A.Cols(), p.B.Rows(), p.B.Cols())
		}
		if rank == 0 {
			rank = r
		} else if r != rank {
			return nil, fmt.Errorf("nn: adapter %s target %s: rank %d differs from %d", name, p.Target, r, rank)
		}
		if p.A.Rows() > tensor.MaxReadElems/p.B.Cols() {
			return nil, fmt.Errorf("nn: adapter %s target %s: (%d,%d) delta exceeds the %d-element limit",
				name, p.Target, p.A.Rows(), p.B.Cols(), tensor.MaxReadElems)
		}
	}
	a := &Adapter{name: name, alpha: alpha, rank: rank, pairs: pairs}
	scale := alpha / float32(rank)
	for _, p := range pairs {
		delta := tensor.New(p.A.Rows(), p.B.Cols())
		tensor.MatMulInto(delta, p.A, p.B)
		delta.ScaleInPlace(scale)
		a.deltas = append(a.deltas, delta)
	}
	return a, nil
}

// Name returns the adapter's name.
func (a *Adapter) Name() string { return a.name }

// Rank returns the low-rank dimension.
func (a *Adapter) Rank() int { return a.rank }

// Alpha returns the LoRA scaling numerator (scale = Alpha/Rank).
func (a *Adapter) Alpha() float32 { return a.alpha }

// Targets returns the targeted linear names in application order.
func (a *Adapter) Targets() []string {
	out := make([]string, len(a.pairs))
	for i, p := range a.pairs {
		out[i] = p.Target
	}
	return out
}

// SizeBytes returns the resident footprint of the adapter's tensors (the
// low-rank factors plus the precomputed dense deltas), the quantity the
// registry's LRU bound accounts in.
func (a *Adapter) SizeBytes() int64 {
	var n int64
	for i, p := range a.pairs {
		n += int64(p.A.Len()+p.B.Len()+a.deltas[i].Len()) * 4
	}
	return n
}

// Save serialises the adapter (low-rank factors only — deltas are rebuilt
// at load).
func (a *Adapter) Save(w io.Writer) error {
	aw, err := artifact.NewWriter(w, "nn: adapter", adapterMagic)
	if err != nil {
		return err
	}
	hdr := adapterHeader{Name: a.name, Alpha: a.alpha, Rank: a.rank, Targets: a.Targets()}
	if err := aw.WriteHeader(hdr); err != nil {
		return err
	}
	for _, p := range a.pairs {
		if _, err := p.A.WriteTo(aw); err != nil {
			return fmt.Errorf("nn: write %s.lora_a: %w", p.Target, err)
		}
		if _, err := p.B.WriteTo(aw); err != nil {
			return fmt.Errorf("nn: write %s.lora_b: %w", p.Target, err)
		}
	}
	return aw.Close()
}

// SaveFile writes the adapter artifact atomically (artifact.WriteFile) so
// a crashed save never leaves a torn artifact in the registry directory.
func (a *Adapter) SaveFile(path string) error {
	return artifact.WriteFile(path, a.Save)
}

// LoadAdapter reads an adapter artifact written by Save, verifying the
// footer before building it. Truncated, bit-flipped, or malformed
// artifacts fail with a diagnostic error — never a panic — so a serving
// registry can map corruption to a clean client error.
func LoadAdapter(r io.Reader) (*Adapter, error) {
	ar, err := artifact.NewReader(r, "nn: adapter", adapterMagic)
	if err != nil {
		return nil, err
	}
	var hdr adapterHeader
	if err := ar.ReadHeader(&hdr); err != nil {
		return nil, err
	}
	if len(hdr.Targets) == 0 || len(hdr.Targets) > 1<<12 {
		return nil, fmt.Errorf("nn: adapter %q has implausible target count %d", hdr.Name, len(hdr.Targets))
	}
	pairs := make([]AdapterPair, 0, len(hdr.Targets))
	for _, target := range hdr.Targets {
		A, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("nn: read %s.lora_a: %w", target, err)
		}
		B, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("nn: read %s.lora_b: %w", target, err)
		}
		pairs = append(pairs, AdapterPair{Target: target, A: A, B: B})
	}
	if err := ar.Verify(); err != nil {
		return nil, err
	}
	a, err := NewAdapter(hdr.Name, hdr.Alpha, pairs)
	if err != nil {
		return nil, err
	}
	if a.rank != hdr.Rank {
		return nil, fmt.Errorf("nn: adapter %q header rank %d does not match tensors (rank %d)", hdr.Name, hdr.Rank, a.rank)
	}
	return a, nil
}

// LoadAdapterFile reads an adapter artifact from a file path.
func LoadAdapterFile(path string) (*Adapter, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAdapter(bufio.NewReader(f))
}

// linearByPath resolves an adapter target name to the model linear it
// patches: "block<N>.{wq,wk,wv,wo,gate,up,down}", "lmhead", or "exit<N>"
// (the per-layer early-exit projection; errors when untied exit heads are
// absent).
func (m *Model) linearByPath(target string) (*Linear, error) {
	if target == "lmhead" {
		return m.LMHead, nil
	}
	if idx, ok := strings.CutPrefix(target, "exit"); ok && !strings.Contains(idx, ".") {
		n, err := strconv.Atoi(idx)
		if err != nil || n < 0 || n >= len(m.Exits) {
			return nil, fmt.Errorf("nn: adapter target %q: model has %d exit heads", target, len(m.Exits))
		}
		if m.Exits[n].Tied {
			return nil, fmt.Errorf("nn: adapter target %q: exit head %d is tied to lmhead; target lmhead instead", target, n)
		}
		return m.Exits[n].Proj, nil
	}
	blockPart, linName, ok := strings.Cut(target, ".")
	if !ok || !strings.HasPrefix(blockPart, "block") {
		return nil, fmt.Errorf("nn: unknown adapter target %q", target)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(blockPart, "block"))
	if err != nil || n < 0 || n >= len(m.Blocks) {
		return nil, fmt.Errorf("nn: adapter target %q: model has %d blocks", target, len(m.Blocks))
	}
	blk := m.Blocks[n]
	switch linName {
	case "wq":
		return blk.Attn.Wq, nil
	case "wk":
		return blk.Attn.Wk, nil
	case "wv":
		return blk.Attn.Wv, nil
	case "wo":
		return blk.Attn.Wo, nil
	case "gate":
		return blk.MLP.Gate, nil
	case "up":
		return blk.MLP.Up, nil
	case "down":
		return blk.MLP.Down, nil
	}
	return nil, fmt.Errorf("nn: unknown adapter target %q", target)
}

// Adapter returns the adapter currently applied to the decoder's model
// weights (nil when decoding on the base model).
func (d *Decoder) Adapter() *Adapter { return d.adapter }

// SetAdapter swaps the low-rank patch merged into the decoder's model
// weights: the previous adapter's targets are restored bitwise-exactly from
// pristine copies saved at apply time, then a's dense deltas are added in
// place. SetAdapter(nil) restores the base model. Every target is resolved
// and shape-checked before any weight changes, so a failed call leaves the
// model exactly as it was. Must be called from the goroutine driving the
// decoder (the scheduler swaps only at batch boundaries).
func (d *Decoder) SetAdapter(a *Adapter) error {
	if a == d.adapter {
		return nil
	}
	if a != nil {
		// Resolve and validate every target before touching any weight.
		lins := make([]*Linear, len(a.pairs))
		for i, p := range a.pairs {
			lin, err := d.m.linearByPath(p.Target)
			if err != nil {
				return fmt.Errorf("nn: adapter %s: %w", a.name, err)
			}
			if len(lin.W.Data.Data) == 0 {
				return fmt.Errorf("nn: adapter %s target %s: weight is packed (float32 data released); packed serving is base-model-only",
					a.name, p.Target)
			}
			if !a.deltas[i].SameShape(lin.W.Data) {
				return fmt.Errorf("nn: adapter %s target %s: delta shape %v does not match weight %v",
					a.name, p.Target, a.deltas[i].Shape, lin.W.Data.Shape)
			}
			lins[i] = lin
		}
		d.restoreBase()
		d.savedWeights = make([]savedWeight, len(lins))
		for i, lin := range lins {
			d.savedWeights[i] = savedWeight{w: lin.W.Data, pristine: lin.W.Data.Clone()}
			lin.W.Data.AddInPlace(a.deltas[i])
		}
		d.adapter = a
		return nil
	}
	d.restoreBase()
	return nil
}

// restoreBase undoes the current adapter by copying the saved pristine
// weights back — bitwise-exact, unlike subtracting the delta in floats.
func (d *Decoder) restoreBase() {
	for _, sw := range d.savedWeights {
		sw.w.CopyFrom(sw.pristine)
	}
	d.savedWeights = nil
	d.adapter = nil
}

// savedWeight pairs a live weight tensor with its pre-adapter contents.
type savedWeight struct {
	w, pristine *tensor.Tensor
}
