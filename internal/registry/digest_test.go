package registry

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/traingen"
)

// onDemandModelSHA256 is the SHA-256 of the gnn.Save bytes of the model
// lisa-serve trains on demand for cgra-4x4 with its default flags. Every
// route, mapping and training sample feeds it, so any change to an
// annealer decision, the training set or the training arithmetic moves it.
const onDemandModelSHA256 = "f5716dd655d2cbd63289eb76fdd811bfe1bff25adec1dbacdb3f5c5ab3b13f4f"

// TestOnDemandModelDigestPinned trains cgra-4x4's model through the
// registry with lisa-serve's default on-demand budget (-train-dfgs 36,
// -train-epochs 60, -train-seed 1; two label iterations at 700 moves) and
// pins its bytes. Float results are only pinned on amd64: other
// architectures may fuse multiply-adds and round differently.
func TestOnDemandModelDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("model bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	r := New(Config{
		TrainGen: traingen.Config{
			NumDFGs:    36,
			Iterations: 2,
			DFG:        dfg.DefaultRandomConfig(),
			MapOpts:    mapper.Options{MaxMoves: 700},
			Filter:     labels.DefaultFilterConfig(),
		},
		TrainCfg:      gnn.TrainConfig{Epochs: 60, LR: 0.003, WeightDecay: 0.0005},
		Seed:          1,
		TrainOnDemand: true,
	})
	m, err := r.ModelFor(arch.NewBaseline4x4())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != onDemandModelSHA256 {
		t.Fatalf("on-demand cgra-4x4 model SHA-256 = %s, want %s", got, onDemandModelSHA256)
	}
}
