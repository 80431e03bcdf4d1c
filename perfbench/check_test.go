package main

import (
	"testing"

	"repro/internal/kernels"
)

func TestIDEAPublishedVector(t *testing.T) {
	z := ideaSubkeys([8]uint16{1, 2, 3, 4, 5, 6, 7, 8})
	got := ideaEncryptBlock(&z, [4]uint16{0, 1, 2, 3})
	if want := [4]uint16{0x11FB, 0xED2B, 0x0198, 0x6DE5}; got != want {
		t.Fatalf("IDEA(0001..0008, 0000 0001 0002 0003) = %04X, want %04X", got, want)
	}
}

func TestReferenceChecksumMatchesKernel(t *testing.T) {
	for _, size := range []int{8, 4096, 4096 + 8*15, 5000} {
		k := kernels.NewCrypt(size)
		k.RunSeq()
		if got, want := k.Checksum(), referenceChecksum(size); got != want {
			t.Errorf("size %d: kernel checksum %d, reference %d", size, got, want)
		}
	}
}

func TestCheckResponseRejectsCorruption(t *testing.T) {
	want := map[int]int64{4096: referenceChecksum(4096)}
	if err := checkResponse(want, 4096, 200, want[4096], nil); err != nil {
		t.Fatalf("good response rejected: %v", err)
	}
	if checkResponse(want, 4096, 200, want[4096]+1, nil) == nil {
		t.Error("wrong checksum accepted")
	}
	if checkResponse(want, 4096, 503, want[4096], nil) == nil {
		t.Error("non-200 status accepted")
	}
}

func goodEvents(n int) []edtEvent {
	ev := make([]edtEvent, n)
	for i := range ev {
		ev[i] = edtEvent{handled: 1, finals: 1, kernelOK: true, finalOnEDT: true, kernelEnd: int64(10 * i), finalAt: int64(10*i + 5)}
	}
	return ev
}

func TestCheckEDTRejectsCorruption(t *testing.T) {
	if e := checkEDT(goodEvents(8), 0); e.n != 0 {
		t.Fatalf("good events rejected: %v", e.err())
	}
	cases := map[string]func(ev []edtEvent) int64{
		"lost event":        func(ev []edtEvent) int64 { ev[3] = edtEvent{}; return 0 },
		"handled twice":     func(ev []edtEvent) int64 { ev[2].handled = 2; return 0 },
		"update lost":       func(ev []edtEvent) int64 { ev[5].finals = 0; return 0 },
		"invalid kernel":    func(ev []edtEvent) int64 { ev[1].kernelOK = false; return 0 },
		"update off EDT":    func(ev []edtEvent) int64 { ev[4].finalOnEDT = false; return 0 },
		"update too early":  func(ev []edtEvent) int64 { ev[6].finalAt = ev[6].kernelEnd - 1; return 0 },
		"off-EDT violation": func(ev []edtEvent) int64 { return 1 },
	}
	for name, corrupt := range cases {
		ev := goodEvents(8)
		violations := corrupt(ev)
		if e := checkEDT(ev, violations); e.n == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func goodTally() invokeTally {
	t := invokeTally{
		waitOps: 5, waitRanFirst: 5, nowaitOps: 5, nowaitNilErr: 5,
		nameasOps: 5, nameasAllRan: 5, awaitOps: 5, awaitProbeFirst: 5,
		inlineOps: 5, inlineDone: 5, inlineSameG: 5,
		coefA: 3, coefB: 7,
	}
	for i := int64(0); i < 40; i++ {
		t.blocks++
		t.blocksRun++
		t.sum += t.coefA*i + t.coefB
	}
	return t
}

func TestCheckInvokeRejectsBrokenProperties(t *testing.T) {
	if e := checkInvoke(goodTally()); e.n != 0 {
		t.Fatalf("good tally rejected: %v", e.err())
	}
	cases := map[string]func(t *invokeTally){
		"Wait returned before its block ran":     func(t *invokeTally) { t.waitRanFirst-- },
		"Nowait completion failed":               func(t *invokeTally) { t.nowaitNilErr-- },
		"WaitTag returned with a block pending":  func(t *invokeTally) { t.nameasAllRan-- },
		"Await returned before the posted event": func(t *invokeTally) { t.awaitProbeFirst-- },
		"inline completion unfinished":           func(t *invokeTally) { t.inlineDone-- },
		"inline block on another goroutine":      func(t *invokeTally) { t.inlineSameG-- },
		"a block never ran":                      func(t *invokeTally) { t.blocksRun-- },
		"a block ran twice":                      func(t *invokeTally) { t.sum += t.coefA*3 + t.coefB },
	}
	for name, corrupt := range cases {
		tl := goodTally()
		corrupt(&tl)
		if e := checkInvoke(tl); e.n == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// feed delivers sender's lines seqs to c, each with its generated content.
func feed(c *lineChecker, sender int, seqs ...int64) {
	for _, s := range seqs {
		c.observe(sender, s, c.payload(sender, s))
	}
}

func TestLineCheckerRejectsCorruption(t *testing.T) {
	good := newLineChecker(7)
	feed(good, 0, 0, 1, 2)
	feed(good, 1, 0, 1)
	if e := good.finish([2]int64{3, 2}); e.n != 0 {
		t.Fatalf("good delivery rejected: %v", e.err())
	}

	dropped := newLineChecker(7)
	feed(dropped, 0, 0, 2)
	if e := dropped.finish([2]int64{3, 0}); e.n == 0 {
		t.Error("dropped line accepted")
	}

	lostTail := newLineChecker(7)
	feed(lostTail, 0, 0, 1)
	if e := lostTail.finish([2]int64{3, 0}); e.n == 0 {
		t.Error("missing last line accepted")
	}

	reordered := newLineChecker(7)
	feed(reordered, 1, 0, 2, 1)
	if e := reordered.finish([2]int64{0, 3}); e.n == 0 {
		t.Error("reordered lines accepted")
	}

	repeated := newLineChecker(7)
	feed(repeated, 0, 0, 1, 1, 2)
	if e := repeated.finish([2]int64{3, 0}); e.n == 0 {
		t.Error("repeated line accepted")
	}

	altered := newLineChecker(7)
	altered.observe(0, 0, []byte("not what the generator produced"))
	if e := altered.finish([2]int64{1, 0}); e.n == 0 {
		t.Error("altered content accepted")
	}
}

func TestParseLine(t *testing.T) {
	sender, seq, payload, ok := parseLine([]byte("1 42 abc\n"))
	if !ok || sender != 1 || seq != 42 || string(payload) != "abc" {
		t.Fatalf("parseLine = %d %d %q %v", sender, seq, payload, ok)
	}
	for _, bad := range []string{"1 42 abc", "1x42 abc\n", "1  abc\n", "\n"} {
		if _, _, _, ok := parseLine([]byte(bad)); ok {
			t.Errorf("parseLine(%q) accepted", bad)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(v); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestSamplerKeepsEvenStride(t *testing.T) {
	s := newSampler(8)
	for i := int64(0); i < 100; i++ {
		s.add(i)
	}
	if len(s.buf) > 8 {
		t.Fatalf("sampler grew to %d", len(s.buf))
	}
	for i, v := range s.buf {
		if v != int64(i)*s.stride {
			t.Fatalf("sample %d = %d, want %d (stride %d)", i, v, int64(i)*s.stride, s.stride)
		}
	}
}
