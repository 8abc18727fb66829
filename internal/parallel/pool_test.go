package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryAcceptedTask(t *testing.T) {
	p := NewPool(4, 16)
	var ran atomic.Int64
	accepted := 0
	for i := 0; i < 100; i++ {
		if p.TrySubmit(func() { ran.Add(1) }) {
			accepted++
		} else {
			// Full queue: drain a moment and keep going.
			time.Sleep(time.Millisecond)
			i--
		}
	}
	p.Close()
	if int(ran.Load()) != accepted {
		t.Fatalf("accepted %d tasks but ran %d", accepted, ran.Load())
	}
	if accepted != 100 {
		t.Fatalf("only %d of 100 tasks were eventually accepted", accepted)
	}
}

func TestPoolRefusesWhenQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if !p.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("first task refused")
	}
	<-started // worker is now busy; the queue slot is free
	if !p.TrySubmit(func() {}) {
		t.Fatal("queued task refused with an empty queue")
	}
	if p.TrySubmit(func() { t.Error("over-admitted task ran") }) {
		t.Fatal("task accepted beyond the queue bound")
	}
	close(block)
}

func TestPoolCloseStopsAdmissionAndDrains(t *testing.T) {
	p := NewPool(2, 8)
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		p.TrySubmit(func() { time.Sleep(time.Millisecond); ran.Add(1) })
	}
	p.Close()
	if p.TrySubmit(func() { t.Error("task ran after Close") }) {
		t.Fatal("TrySubmit accepted work after Close")
	}
	if ran.Load() == 0 {
		t.Fatal("Close did not drain queued tasks")
	}
	p.Close() // idempotent
}

// Hammer TrySubmit against Close under the race detector: submissions must
// either run or be refused, never panic on the closed channel.
func TestPoolSubmitCloseRace(t *testing.T) {
	p := NewPool(2, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.TrySubmit(func() {})
			}
		}()
	}
	time.Sleep(500 * time.Microsecond)
	p.Close()
	wg.Wait()
}

// A panicking task must not kill its worker: every other task still runs,
// and the installed handler observes the panic value and a stack trace.
func TestPoolSurvivesPanickingTasks(t *testing.T) {
	p := NewPool(2, 64)
	defer p.Close()

	var panics atomic.Int32
	var sawStack atomic.Bool
	p.OnPanic(func(recovered any, stack []byte) {
		panics.Add(1)
		if recovered == "boom" && len(stack) > 0 {
			sawStack.Store(true)
		}
	})

	const tasks = 40
	var ran atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		i := i
		wg.Add(1)
		ok := p.TrySubmit(func() {
			defer wg.Done()
			if i%4 == 0 {
				panic("boom")
			}
			ran.Add(1)
		})
		if !ok {
			wg.Done()
			t.Fatalf("task %d refused by an idle pool", i)
		}
	}
	wg.Wait()
	if got := ran.Load(); got != tasks-tasks/4 {
		t.Fatalf("ran %d non-panicking tasks, want %d", got, tasks-tasks/4)
	}
	// A panicking task's deferred wg.Done runs before the pool's recover
	// calls the handler, so only Close — which waits for the workers —
	// orders every handler call before the count is read.
	p.Close()
	if got := panics.Load(); got != tasks/4 {
		t.Fatalf("handler saw %d panics, want %d", got, tasks/4)
	}
	if !sawStack.Load() {
		t.Fatal("handler never saw the panic value with a stack trace")
	}
}

func TestPoolPanicWithoutHandlerIsSwallowed(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	done := make(chan struct{})
	if !p.TrySubmit(func() { defer close(done); panic("quiet") }) {
		t.Fatal("submit refused")
	}
	<-done
	// The worker must still be alive to run this.
	ok := make(chan struct{})
	if !p.TrySubmit(func() { close(ok) }) {
		t.Fatal("submit after panic refused")
	}
	<-ok
}
