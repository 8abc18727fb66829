package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// listDigests renders every workload's request list for seed as the bytes
// a client would send and digests each.
func listDigests(t *testing.T, seed int64) map[string][32]byte {
	t.Helper()
	out := make(map[string][32]byte)

	var compile bytes.Buffer
	for _, r := range compileList(seed, 10, 2*len(compileDeck())) {
		compile.Write(r.body())
	}
	out[wCompile] = sha256.Sum256(compile.Bytes())

	var hot bytes.Buffer
	set, list := serveHotList(seed, hotWorkingSet, 5000)
	for _, r := range set {
		hot.Write(r.body())
	}
	for _, k := range list {
		_ = binary.Write(&hot, binary.LittleEndian, k) // bytes.Buffer writes never fail
	}
	out[wServeHot] = sha256.Sum256(hot.Bytes())

	pool, err := newLabelsPool(seed)
	if err != nil {
		t.Fatal(err)
	}
	var lbl []byte
	for _, items := range labelsList(seed, 5, 2*maxLabelBatch, pool) {
		lbl = pool.appendLabelsBody(lbl, items)
	}
	out[wLabels] = sha256.Sum256(lbl)
	return out
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	a, b, c := listDigests(t, 1), listDigests(t, 1), listDigests(t, 2)
	for _, w := range []string{wCompile, wServeHot, wLabels} {
		if a[w] != b[w] {
			t.Errorf("%s: the same seed gave different request lists", w)
		}
		if a[w] == c[w] {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w)
		}
	}
}

func TestMeasuredMixIsTheSameForEverySeed(t *testing.T) {
	deck := len(compileDeck())
	type shape struct {
		kernel           string
		unroll, restarts int
	}
	mix := func(seed int64) map[shape]int {
		m := make(map[shape]int)
		seen := make(map[int64]bool)
		for _, r := range compileList(seed, 7, 3*deck)[7:] {
			m[shape{r.Kernel, r.Unroll, r.Restarts}]++
			if seen[r.Seed] {
				t.Fatalf("seed %d: two requests share mapping seed %d", seed, r.Seed)
			}
			seen[r.Seed] = true
		}
		return m
	}
	want := make(map[shape]int)
	for _, r := range compileDeck() {
		want[shape{r.Kernel, r.Unroll, r.Restarts}] += 3
	}
	a, b := mix(1), mix(9)
	if len(a) != len(want) || len(b) != len(want) {
		t.Fatalf("%d and %d shapes, want %d", len(a), len(b), len(want))
	}
	for s, n := range want {
		if a[s] != n || b[s] != n {
			t.Errorf("%+v: %d and %d requests, want %d", s, a[s], b[s], n)
		}
	}

	pool, err := newLabelsPool(1)
	if err != nil {
		t.Fatal(err)
	}
	dealt := func(seed int64) map[labelItem]int {
		m := make(map[labelItem]int)
		for _, items := range labelsList(seed, 4, 2*maxLabelBatch, pool)[4:] {
			for _, it := range items {
				m[it]++
			}
		}
		return m
	}
	x, y := dealt(3), dealt(8)
	dfgs := 0
	for it, n := range x {
		dfgs += n
		if y[it] != n {
			t.Errorf("labels DFG %+v: seeds 3 and 8 send it %d and %d times", it, n, y[it])
		}
	}
	if want := maxLabelBatch * (maxLabelBatch + 1); dfgs != want {
		t.Errorf("two decks of labels batches carry %d DFGs, want %d", dfgs, want)
	}
}

func TestLabelsBodyListsKernelsThenDocuments(t *testing.T) {
	pool, err := newLabelsPool(1)
	if err != nil {
		t.Fatal(err)
	}
	items := []labelItem{{kindRandom, 3}, {kindNamed, 0}, {kindUnrolled, 1}, {kindNamed, 2}}
	got := string(pool.appendLabelsBody(nil, items))
	want := `{"arch":"cgra-4x4","kernels":["gemm","bicg"],"dfgs":[` +
		string(pool.random[3]) + "," + string(pool.unrolled[1]) + "]}"
	if got != want {
		t.Errorf("body\n%s\nwant\n%s", got, want)
	}
	if got := string(pool.appendLabelsBody(nil, items[:1])); got != `{"arch":"cgra-4x4","dfgs":[`+string(pool.random[3])+"]}" {
		t.Errorf("documents only: %s", got)
	}
}
