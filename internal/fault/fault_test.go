package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		p, err := ParsePlan("  ", 7)
		if err != nil || p != nil {
			t.Fatalf("empty spec: got %v, %v", p, err)
		}
	})
	t.Run("full", func(t *testing.T) {
		p, err := ParsePlan("mapper.anneal=error:1, cache.get=latency:0.5:50ms,pool.submit=panic:0.25", 42)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seed != 42 || len(p.Sites) != 3 {
			t.Fatalf("plan = %+v", p)
		}
		if c := p.Sites[MapperAnneal]; c.Mode != ModeError || c.Prob != 1 {
			t.Errorf("mapper.anneal = %+v", c)
		}
		if c := p.Sites[CacheGet]; c.Mode != ModeLatency || c.Latency != 50*time.Millisecond {
			t.Errorf("cache.get = %+v", c)
		}
		if c := p.Sites[PoolSubmit]; c.Mode != ModePanic || c.Prob != 0.25 {
			t.Errorf("pool.submit = %+v", c)
		}
	})
	for _, bad := range []string{
		"nope=error:1",                                // unknown site
		"router.dijkstra=error:1",                     // the router site's old name
		"mapper.anneal=boom:1",                        // unknown mode
		"mapper.anneal=error:2",                       // probability out of range
		"mapper.anneal=error:x",                       // unparsable probability
		"mapper.anneal=latency:1",                     // latency without duration
		"mapper.anneal=error:1:50ms",                  // latency field on non-latency mode
		"mapper.anneal",                               // no '='
		"mapper.anneal=error:1,mapper.anneal=error:1", // duplicate
	} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", bad)
		}
	}
}

func TestInjectDisabledIsNil(t *testing.T) {
	Deactivate()
	for _, site := range Sites() {
		if err := Inject(site, 123); err != nil {
			t.Fatalf("disabled Inject(%s) = %v", site, err)
		}
	}
}

func TestInjectModes(t *testing.T) {
	defer Deactivate()
	plan := &Plan{Seed: 1, Sites: map[Site]SiteConfig{
		MapperAnneal: {Prob: 1, Mode: ModeError},
		PoolSubmit:   {Prob: 1, Mode: ModePanic},
		CacheGet:     {Prob: 1, Mode: ModeLatency, Latency: time.Millisecond},
	}}
	if err := Activate(plan); err != nil {
		t.Fatal(err)
	}

	err := Inject(MapperAnneal, 9)
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != MapperAnneal {
		t.Fatalf("error mode: got %v", err)
	}

	func() {
		defer func() {
			r := recover()
			pv, ok := r.(*PanicValue)
			if !ok || pv.Site != PoolSubmit {
				t.Errorf("panic mode: recovered %v", r)
			}
		}()
		_ = Inject(PoolSubmit, 9)
		t.Error("panic mode did not panic")
	}()

	if err := Inject(CacheGet, 9); err != nil {
		t.Fatalf("latency mode returned %v", err)
	}
	// Unarmed site stays silent even with a plan active.
	if err := Inject(GNNTrain, 9); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}

	c := Counts()
	if c[MapperAnneal] != 1 || c[PoolSubmit] != 1 || c[CacheGet] != 1 || c[GNNTrain] != 0 {
		t.Fatalf("counts = %v", c)
	}
}

// TestDecideDeterministic pins the core reproducibility contract: the fire
// decision is a pure function of (seed, site, token).
func TestDecideDeterministic(t *testing.T) {
	for _, prob := range []float64{0.1, 0.5, 0.9} {
		for token := uint64(0); token < 64; token++ {
			a := decide(42, MapperAnneal, token, prob)
			for i := 0; i < 3; i++ {
				if b := decide(42, MapperAnneal, token, prob); a != b {
					t.Fatalf("decide(42, anneal, %d, %g) flapped", token, prob)
				}
			}
		}
	}
}

// TestDecideDistribution checks the splitmix64 stream roughly honours the
// probability across tokens (the "per-request stream" property: different
// requests draw independent decisions).
func TestDecideDistribution(t *testing.T) {
	const n = 4000
	fired := 0
	for token := uint64(0); token < n; token++ {
		if decide(7, CacheGet, token, 0.5) {
			fired++
		}
	}
	if fired < n*4/10 || fired > n*6/10 {
		t.Fatalf("prob 0.5 fired %d/%d times", fired, n)
	}
	// Different sites draw from different streams under the same tokens.
	same := 0
	for token := uint64(0); token < n; token++ {
		if decide(7, CacheGet, token, 0.5) == decide(7, PoolSubmit, token, 0.5) {
			same++
		}
	}
	if same == n {
		t.Fatal("cache.get and pool.submit streams are identical")
	}
	// Different seeds reshuffle the decisions.
	same = 0
	for token := uint64(0); token < n; token++ {
		if decide(7, CacheGet, token, 0.5) == decide(8, CacheGet, token, 0.5) {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 7 and 8 produce identical streams")
	}
}

func TestProbEdges(t *testing.T) {
	for token := uint64(0); token < 100; token++ {
		if decide(1, MapperAnneal, token, 0) {
			t.Fatal("prob 0 fired")
		}
		if !decide(1, MapperAnneal, token, 1) {
			t.Fatal("prob 1 did not fire")
		}
	}
}

func TestActivateValidates(t *testing.T) {
	defer Deactivate()
	bad := []*Plan{
		{Seed: 1, Sites: map[Site]SiteConfig{"nope": {Prob: 1}}},
		// The router site's name before it was renamed router.route.
		{Seed: 1, Sites: map[Site]SiteConfig{"router.dijkstra": {Prob: 1}}},
		{Seed: 1, Sites: map[Site]SiteConfig{MapperAnneal: {Prob: 2}}},
		{Seed: 1, Sites: map[Site]SiteConfig{CacheGet: {Prob: 1, Mode: ModeLatency, Latency: -1}}},
	}
	for i, p := range bad {
		if err := Activate(p); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	if Enabled() {
		t.Fatal("failed Activate left a plan armed")
	}
}

func TestPlanString(t *testing.T) {
	p, err := ParsePlan("cache.get=latency:0.5:50ms,mapper.anneal=error:1", 9)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"seed=9", "mapper.anneal=error:1", "cache.get=latency:0.5:50ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	var nilPlan *Plan
	if nilPlan.String() != "faults disabled" {
		t.Errorf("nil String() = %q", nilPlan.String())
	}
}
