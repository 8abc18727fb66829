package dfg_test

import (
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
)

func TestOpHistogram(t *testing.T) {
	g := kernels.MustByName("gemm")
	h := dfg.OpHistogram(g)
	if h[dfg.OpLoad] != 3 || h[dfg.OpStore] != 1 {
		t.Fatalf("gemm histogram wrong: %v", h)
	}
}
