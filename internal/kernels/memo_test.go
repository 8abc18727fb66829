package kernels

import (
	"bytes"
	"sync"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
)

// allNames lists every name Lookup accepts.
func allNames() []string {
	return append(Names(), ExtendedNames()...)
}

// memoFilled counts the memo slots holding canonical bytes.
func memoFilled() int {
	n := 0
	for _, k := range registry {
		for i := range k.canon {
			if k.canon[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

func TestRegistryHoldsEveryNamedKernel(t *testing.T) {
	names := allNames()
	if len(registry) != len(names) || len(names) != 16 {
		t.Fatalf("registry has %d kernels, names list %d, want 16", len(registry), len(names))
	}
	for _, name := range names {
		if _, err := Lookup(name); err != nil {
			t.Error(err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// Canonical is the canonical encoding of the graph Build returns, for every
// kernel and factor, memoized or not, and factors <= 1 mean the kernel as
// built.
func TestCanonicalMatchesBuild(t *testing.T) {
	for _, name := range allNames() {
		k, _ := Lookup(name)
		for factor := -1; factor <= MemoUnroll+2; factor++ {
			g := MustByName(name)
			if factor > 1 {
				g = dfg.Unroll(g, factor)
			}
			want := g.AppendCanonical(nil)
			if got := k.Build(factor).AppendCanonical(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: Build(%d) differs from ByName + dfg.Unroll", name, factor)
			}
			for pass := 0; pass < 2; pass++ { // fill, then hit
				if got := k.Canonical(factor); !bytes.Equal(got, want) {
					t.Fatalf("%s: Canonical(%d) pass %d differs from the built graph's encoding", name, factor, pass)
				}
			}
		}
	}
}

// Factors above MemoUnroll are encoded per call and never stored.
func TestCanonicalBeyondMemoDoesNotGrowIt(t *testing.T) {
	k, _ := Lookup("gesummv")
	before := memoFilled()
	for _, factor := range []int{MemoUnroll + 1, 12, 33} {
		want := dfg.Unroll(MustByName("gesummv"), factor).AppendCanonical(nil)
		if got := k.Canonical(factor); !bytes.Equal(got, want) {
			t.Fatalf("Canonical(%d) differs from the unrolled graph's encoding", factor)
		}
	}
	if after := memoFilled(); after != before {
		t.Fatalf("factors above %d grew the memo from %d to %d slots", MemoUnroll, before, after)
	}
}

func TestCanonicalHitAllocatesNothing(t *testing.T) {
	k, _ := Lookup("gemm")
	k.Canonical(2)
	if allocs := testing.AllocsPerRun(100, func() { k.Canonical(2) }); allocs != 0 {
		t.Fatalf("a memoized Canonical allocates %v times, want 0", allocs)
	}
}

// Sixteen concurrent first calls for one shape all return the one stored
// copy.
func TestCanonicalConcurrentFirstCalls(t *testing.T) {
	k, _ := Lookup("syr2k")
	const factor = 5
	want := k.Build(factor).AppendCanonical(nil)
	for round := 0; round < 8; round++ {
		k.canon[factor-1].Store(nil) // start from an empty slot every round
		const n = 16
		got := make([][]byte, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = k.Canonical(factor)
			}(i)
		}
		close(start)
		wg.Wait()
		stored := k.Canonical(factor)
		for i, b := range got {
			if !bytes.Equal(b, want) || &b[0] != &stored[0] {
				t.Fatalf("round %d: call %d did not return the stored encoding", round, i)
			}
		}
	}
}
