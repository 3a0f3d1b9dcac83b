package serving

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
)

// modelRegressionSeeds are sequence seeds that once failed
// TestServingModel; they replay first on every run.
var modelRegressionSeeds = []int64{}

// TestServingModel runs seeded random operation sequences — Tag, TagBatch,
// Swap, context cancellation and Close — from concurrent clients against
// fake engines whose answers name their generation ("g<k>:<text>"), and
// checks the serving contracts after each sequence:
//
//   - accounting: the rows clients received match Stats.Issued exactly
//     when no call was cancelled or refused, and bracket it otherwise;
//   - no drops: every accepted request was served, each by exactly one
//     engine row, and every call returned;
//   - generation purity: every answer is for its own text and comes from
//     a generation whose Swap had been called by the time the answer
//     arrived, and no older than the last Swap that had returned when the
//     call began;
//   - no leaks: the goroutine count returns to its baseline after Close.
//
// Each sequence derives from runner.DeriveSeed, so a failing seed (printed
// in the failure) replays its operation sequence exactly; add it to
// modelRegressionSeeds.
func TestServingModel(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 50
	}
	seeds := append([]int64(nil), modelRegressionSeeds...)
	for i := 0; i < n; i++ {
		seeds = append(seeds, runner.DeriveSeed(15, "serving-model", strconv.Itoa(i)))
	}
	for _, seed := range seeds {
		runModelSequence(t, seed)
		if t.Failed() {
			t.Fatalf("sequence seed %d failed; replay it from modelRegressionSeeds", seed)
		}
	}
}

// modelOp is one client operation of a generated sequence.
type modelOp struct {
	batch  []string      // TagBatch texts; nil for a single Tag of text
	text   string        // the Tag text
	cancel time.Duration // > 0: the call's context expires after this long
}

func runModelSequence(t *testing.T, seed int64) {
	t.Helper()
	ctl := rand.New(rand.NewSource(runner.DeriveSeed(seed, "control")))
	// chaos seeds cancel calls and may Close under live traffic; the
	// others keep the accounting exact.
	chaos := ctl.Intn(2) == 0
	clients := 1 + ctl.Intn(4)
	vocab := 2 + ctl.Intn(12)
	delay := time.Duration(ctl.Intn(3)) * 50 * time.Microsecond
	cfg := Config{MaxBatch: 1 + ctl.Intn(8)}
	if ctl.Intn(2) == 0 {
		cfg.CacheSize = 1 + ctl.Intn(16)
	}

	var all []*fakeEngine // every engine of every generation
	engines := func(gen int, shards int) []Engine {
		out := make([]Engine, shards)
		for i := range out {
			e := &fakeEngine{prefix: fmt.Sprintf("g%d:", gen), delay: delay}
			all = append(all, e)
			out[i] = e
		}
		return out
	}

	baseline := runtime.NumGoroutine()
	s, err := New(cfg, engines(1, 1+ctl.Intn(3))...)
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	// swapCalled is the newest generation handed to Swap, swapDone the
	// newest whose Swap returned.
	var swapCalled, swapDone atomic.Int64
	swapCalled.Store(1)
	swapDone.Store(1)

	var (
		mu         sync.Mutex
		okRows     int64 // rows of calls that returned answers
		vagueRows  int64 // rows of cancelled or refused calls: counted or not
		violations []string
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// check validates one answered row against its text and the
	// generation window [lo, hi] the call could see.
	check := func(text string, tags []string, lo, hi int64) {
		if len(tags) != 1 {
			violate("%q answered %v, want one tag", text, tags)
			return
		}
		prefix, rest, ok := strings.Cut(tags[0], ":")
		gen, err := strconv.ParseInt(strings.TrimPrefix(prefix, "g"), 10, 64)
		if !ok || err != nil || rest != text {
			violate("%q answered %q, not its own text", text, tags[0])
			return
		}
		if gen < lo || gen > hi {
			violate("%q answered by generation %d outside [%d, %d]", text, gen, lo, hi)
		}
	}

	// The controller's plan is drawn up front so its draws never depend
	// on how the clients interleave.
	swaps := ctl.Intn(4)
	closeEarly := chaos && ctl.Intn(3) == 0
	// vague reports an error the sequence allows: the call's own deadline,
	// or ErrClosed once the controller may close under traffic. Such a
	// call's rows may or may not have been counted.
	vague := func(op modelOp, err error) bool {
		return op.cancel > 0 && errors.Is(err, context.DeadlineExceeded) ||
			closeEarly && errors.Is(err, ErrClosed)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, "client", strconv.Itoa(c))))
		ops := make([]modelOp, 10+rng.Intn(30))
		text := func() string { return "doc-" + strconv.Itoa(rng.Intn(vocab)) }
		for i := range ops {
			if rng.Intn(3) == 0 {
				ops[i].batch = make([]string, 1+rng.Intn(2*cfg.MaxBatch))
				for j := range ops[i].batch {
					ops[i].batch[j] = text()
				}
			} else {
				ops[i].text = text()
			}
			if chaos && rng.Intn(5) == 0 {
				ops[i].cancel = time.Duration(1+rng.Intn(300)) * time.Microsecond
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if op.cancel > 0 {
					ctx, cancel = context.WithTimeout(ctx, op.cancel)
				}
				lo := swapDone.Load()
				if op.batch == nil {
					tags, err := s.Tag(ctx, op.text)
					hi := swapCalled.Load()
					cancel()
					switch {
					case err == nil:
						check(op.text, tags, lo, hi)
						mu.Lock()
						okRows++
						mu.Unlock()
					case vague(op, err):
						mu.Lock()
						vagueRows++
						mu.Unlock()
					default:
						violate("Tag(%q): %v", op.text, err)
					}
					continue
				}
				got, err := s.TagBatch(ctx, op.batch)
				hi := swapCalled.Load()
				cancel()
				switch {
				case err == nil && len(got) == len(op.batch):
					for i, text := range op.batch {
						check(text, got[i], lo, hi)
					}
					mu.Lock()
					okRows += int64(len(op.batch))
					mu.Unlock()
				case vague(op, err):
					mu.Lock()
					vagueRows += int64(len(op.batch))
					mu.Unlock()
				default:
					violate("TagBatch(%v) = %d rows, %v", op.batch, len(got), err)
				}
			}
		}()
	}

	// The controller swaps generations under the clients' traffic and, on
	// chaos seeds, may close the server before they finish.
	for gen := int64(2); gen < int64(2+swaps); gen++ {
		time.Sleep(time.Duration(ctl.Intn(500)) * time.Microsecond)
		next := engines(int(gen), 1+ctl.Intn(3))
		swapCalled.Store(gen)
		if err := s.Swap(next...); err != nil {
			t.Errorf("seed %d: Swap to generation %d: %v", seed, gen, err)
			break
		}
		swapDone.Store(gen)
	}
	if closeEarly {
		time.Sleep(time.Duration(ctl.Intn(500)) * time.Microsecond)
		s.Close()
		if err := s.Swap(engines(0, 1)...); !errors.Is(err, ErrClosed) {
			t.Errorf("seed %d: Swap after Close = %v, want ErrClosed", seed, err)
		}
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("seed %d: clients still blocked after 10s: a request was dropped or a waiter never woken; stats %+v", seed, s.Stats())
	}
	s.Close()

	for _, v := range violations {
		t.Errorf("seed %d: %s", seed, v)
	}
	var rows int64
	for _, e := range all {
		for _, n := range e.batchSizes() {
			rows += int64(n)
		}
	}
	st := s.Stats()
	if st.Requests != st.Served || st.Served != rows {
		t.Errorf("seed %d: requests %d, served %d, engine rows %d: want all equal", seed, st.Requests, st.Served, rows)
	}
	if vagueRows == 0 && st.Issued != okRows {
		t.Errorf("seed %d: Issued %d, clients received %d rows", seed, st.Issued, okRows)
	}
	if st.Issued < okRows || st.Issued > okRows+vagueRows {
		t.Errorf("seed %d: Issued %d outside [%d, %d] (received, received + cancelled or refused)",
			seed, st.Issued, okRows, okRows+vagueRows)
	}
	if want := swapDone.Load(); st.Generation != want {
		t.Errorf("seed %d: generation %d after Close, want %d", seed, st.Generation, want)
	}
	if st.Errors != 0 || st.Rejected != 0 {
		t.Errorf("seed %d: errors %d rejected %d, want none", seed, st.Errors, st.Rejected)
	}
	// A cancelled Tag leaves a helper settling its flight; it exits as
	// soon as its already-delivered result is read, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("seed %d: %d goroutines after Close, baseline %d", seed, g, baseline)
	}
}
