package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
)

// Output checks. Each is derived from the inputs the benchmark generated or
// from a property Algorithm 1 guarantees, never from a saved copy of an
// earlier run's output. The workloads feed them; check_test.go feeds them
// corrupted outputs.

// errList collects check failures, keeping the first few messages.
type errList struct {
	n     int
	first []error
}

func (e *errList) addf(format string, args ...any) {
	e.n++
	if len(e.first) < 5 {
		e.first = append(e.first, fmt.Errorf(format, args...))
	}
}

func (e *errList) merge(o errList) {
	e.n += o.n
	for _, err := range o.first {
		if len(e.first) < 5 {
			e.first = append(e.first, err)
		}
	}
}

func (e *errList) err() error {
	if e.n == 0 {
		return nil
	}
	return fmt.Errorf("%d check failures, first: %w", e.n, errors.Join(e.first...))
}

// edtEvent is what one edt-offload event left behind. The fields are
// written along the event's own happens-before chain (EDT handler, worker
// block, EDT update) and read only after the run has drained.
type edtEvent struct {
	handled    int32 // times the EDT handler ran
	finals     int32 // times the final EDT update ran
	kernelOK   bool  // the kernel passed Validate
	finalOnEDT bool  // the final update ran on the EDT
	kernelEnd  int64 // ns, when the kernel finished
	finalAt    int64 // ns, when the final update ran
}

// checkEDT checks the fired events and the toolkit's violation count:
// every event handled exactly once, every kernel valid, every final update
// on the EDT after its kernel, and no off-EDT widget mutation.
func checkEDT(events []edtEvent, violations int64) errList {
	var e errList
	for i := range events {
		ev := &events[i]
		switch {
		case ev.handled != 1:
			e.addf("event %d handled %d times", i, ev.handled)
		case ev.finals != 1:
			e.addf("event %d updated %d times", i, ev.finals)
		case !ev.kernelOK:
			e.addf("event %d: kernel failed Validate", i)
		case !ev.finalOnEDT:
			e.addf("event %d: final update off the EDT", i)
		case ev.finalAt < ev.kernelEnd:
			e.addf("event %d: final update before its kernel ended", i)
		}
	}
	if violations != 0 {
		e.addf("toolkit counted %d off-EDT mutations", violations)
	}
	return e
}

// invokeTally counts, per Algorithm 1 mode, the operations run and those
// that showed the property the mode promises.
type invokeTally struct {
	waitOps, waitRanFirst     int64 // Wait returned after its block ran
	nowaitOps, nowaitNilErr   int64 // the Nowait completion ended with nil
	nameasOps, nameasAllRan   int64 // WaitTag returned after all k blocks ran
	awaitOps, awaitProbeFirst int64 // the event posted during Await ran before it returned
	inlineOps, inlineDone     int64 // the inline completion was already finished
	inlineSameG               int64 // and the block ran on the calling goroutine
	blocks, sum, coefA, coefB int64 // block i adds coefA*i+coefB to sum
	blocksRun                 int64
}

// failed counts the operations whose mode property did not hold.
func (t *invokeTally) failed() int64 {
	return (t.waitOps - t.waitRanFirst) + (t.nowaitOps - t.nowaitNilErr) +
		(t.nameasOps - t.nameasAllRan) + (t.awaitOps - t.awaitProbeFirst) +
		(t.inlineOps - min(t.inlineDone, t.inlineSameG))
}

func checkInvoke(t invokeTally) errList {
	var e errList
	prop := func(mode string, ops, ok int64, what string) {
		if ok != ops {
			e.addf("%s: %d of %d operations broke %q", mode, ops-ok, ops, what)
		}
	}
	prop("wait", t.waitOps, t.waitRanFirst, "Wait returns after its block ran")
	prop("nowait", t.nowaitOps, t.nowaitNilErr, "Nowait completion finishes with nil")
	prop("name_as", t.nameasOps, t.nameasAllRan, "WaitTag returns after all tagged blocks ran")
	prop("await", t.awaitOps, t.awaitProbeFirst, "an event posted while awaiting runs before Await returns")
	prop("inline", t.inlineOps, t.inlineDone, "an inline invoke returns a finished completion")
	prop("inline", t.inlineOps, t.inlineSameG, "an inline invoke runs on the calling goroutine")
	if t.blocksRun != t.blocks {
		e.addf("%d blocks issued, %d ran", t.blocks, t.blocksRun)
	}
	n := t.blocks
	if want := t.coefA*(n*(n-1)/2) + t.coefB*n; t.sum != want {
		e.addf("blocks summed to %d, closed form gives %d", t.sum, want)
	}
	return e
}

// checkResponse checks one /encrypt answer against the reference checksum
// for the size asked.
func checkResponse(want map[int]int64, size, status int, sum int64, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("size %d: %v", size, err)
	case status != 200:
		return fmt.Errorf("size %d: status %d", size, status)
	case sum != want[size]:
		return fmt.Errorf("size %d: checksum %d, reference IDEA gives %d", size, sum, want[size])
	}
	return nil
}

// linePayloads returns the seeded line contents of one sender.
func linePayloads(seed int64, sender int, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed*7919 + int64(sender)))
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 16+rng.Intn(33))
		for j := range p {
			p[j] = 'a' + byte(rng.Intn(26))
		}
		out[i] = p
	}
	return out
}

// lineChecker checks the lines one chat member receives: from each sender,
// every line exactly once, in send order, with the generated content.
type lineChecker struct {
	payloads [2][][]byte
	next     [2]int64 // next expected sequence number per sender
	errs     errList
}

func newLineChecker(seed int64) *lineChecker {
	c := &lineChecker{}
	for s := range c.payloads {
		c.payloads[s] = linePayloads(seed, s, 512)
	}
	return c
}

func (c *lineChecker) payload(sender int, seq int64) []byte {
	p := c.payloads[sender]
	return p[seq%int64(len(p))]
}

// observe checks one received line and reports whether it was right.
func (c *lineChecker) observe(sender int, seq int64, payload []byte) bool {
	if sender < 0 || sender >= len(c.next) {
		c.errs.addf("line from unknown sender %d", sender)
		return false
	}
	if seq != c.next[sender] {
		c.errs.addf("sender %d: got line %d, expected %d (lost, repeated or reordered)", sender, seq, c.next[sender])
		if seq > c.next[sender] {
			c.next[sender] = seq + 1
		}
		return false
	}
	c.next[sender]++
	if !bytes.Equal(payload, c.payload(sender, seq)) {
		c.errs.addf("sender %d line %d: content %q differs from the generated line", sender, seq, payload)
		return false
	}
	return true
}

// finish checks that every line each sender sent has arrived.
func (c *lineChecker) finish(sent [2]int64) errList {
	e := c.errs
	for s, n := range sent {
		if c.next[s] != n {
			e.addf("sender %d sent %d lines, %d arrived", s, n, c.next[s])
		}
	}
	return e
}
