package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gid"
	"repro/internal/netloop"
	"repro/internal/reactor"
)

// net-lines: a one-room chat on netloop with the reactor transport. Two
// plain net.Conn clients, one goroutine each, keep netWindow short lines in
// flight; the benchmark's handler broadcasts each line to both members with
// Client.Send. One operation is one line, delivered to both members; a
// sender's next line goes out when its own copy comes back. Line contents
// are drawn from the seed. Client 0 also posts a probe event to the
// server's dispatch loop every netProbeEvery lines, one at a time.
const (
	netClients    = 2
	netWindow     = 4
	netProbeEvery = 16
	netWarmup     = 1024 // lines per client
)

type netLines struct {
	seed int64
	tr   *tracer

	reg     gid.Registry
	srv     *netloop.Server
	members []*netloop.Client // touched on the dispatch loop only
	joined  atomic.Int32
	sendErr atomic.Int64

	clients [netClients]*chatClient
	sent    [netClients]atomic.Int64 // lines each client has sent
	stopped [netClients]atomic.Bool  // the client sends no more lines

	probeBusy atomic.Bool
	probePost atomic.Int64 // unix ns of the outstanding probe's post
	probe     *sampler     // written on the dispatch loop

	runLines int64
	statFrom reactor.Stats
	statTo   reactor.Stats
	msgFrom  int64
	msgTo    int64
}

// chatClient is one member's connection and its receive-side state.
type chatClient struct {
	id     int
	conn   net.Conn
	rd     *bufio.Reader
	buf    []byte
	carry  []byte // a line cut short by a drain-time read timeout
	sentAt [netWindow]time.Time
	check  *lineChecker
	lat    *sampler
	failed int64
	err    error
}

func newNetLines(seed int64, tr *tracer) workload {
	return &netLines{seed: seed, tr: tr}
}

func (w *netLines) setup() error {
	w.srv = netloop.New("chat", &w.reg)
	if err := w.srv.EnableReactor(); err != nil {
		return err
	}
	w.srv.OnConnect(func(c *netloop.Client) {
		w.members = append(w.members, c)
		w.joined.Add(1)
	})
	w.srv.HandleFunc(w.broadcast)
	if w.tr != nil {
		w.srv.Loop().SetObserver(w.tr.observer())
	}
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	for i := range w.clients {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		w.clients[i] = &chatClient{id: i, conn: conn, rd: bufio.NewReaderSize(conn, 64<<10),
			buf: make([]byte, 0, 128), check: newLineChecker(w.seed), lat: newSampler(sampleCap)}
	}
	if !waitFor(5*time.Second, func() bool { return w.joined.Load() == netClients }) {
		return errors.New("net-lines: clients did not join")
	}
	w.probe = newSampler(sampleCap)
	if err := w.drive(time.Time{}, netWarmup); err != nil {
		return fmt.Errorf("net-lines warm-up: %w", err)
	}
	for _, c := range w.clients {
		c.lat = newSampler(sampleCap)
	}
	w.probe = newSampler(sampleCap)
	return nil
}

// broadcast is the chat handler, on the server's dispatch loop.
func (w *netLines) broadcast(_ *netloop.Client, line string) {
	var t0 int64
	var root int32 = -1
	if w.tr != nil {
		root = w.tr.open()
		t0 = w.tr.now()
	}
	for _, m := range w.members {
		var s0 int64
		if w.tr != nil {
			s0 = w.tr.now()
		}
		if err := m.Send(line); err != nil {
			w.sendErr.Add(1)
		}
		if w.tr != nil {
			w.tr.record(spSend, root, 0, s0, w.tr.now())
		}
	}
	if w.tr != nil {
		w.tr.close(root, spHandler, -1, 0, t0)
	}
}

func (w *netLines) postProbe() {
	if !w.probeBusy.CompareAndSwap(false, true) {
		return
	}
	w.probePost.Store(time.Now().UnixNano())
	w.srv.Loop().Post(func() {
		w.probe.add(time.Now().UnixNano() - w.probePost.Load())
		w.probeBusy.Store(false)
	})
}

// drive runs both clients until end (or, with a zero end, until each has
// sent limit more lines), lets every line in flight arrive, and waits for
// both client goroutines.
func (w *netLines) drive(end time.Time, limit int64) error {
	for i := range w.stopped {
		w.stopped[i].Store(false)
	}
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *chatClient) {
			defer wg.Done()
			c.err = w.client(c, end, w.sent[c.id].Load()+limit)
		}(c)
	}
	wg.Wait()
	var errs []error
	for _, c := range w.clients {
		if c.err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", c.id, c.err))
		}
	}
	return errors.Join(errs...)
}

// client is one member's loop: send a window, send a line for each own line
// that comes back, check every line that arrives, then drain.
func (w *netLines) client(c *chatClient, end time.Time, limit int64) error {
	other := 1 - c.id
	sending := true
	more := func() bool {
		if end.IsZero() {
			return w.sent[c.id].Load() < limit
		}
		return time.Now().Before(end)
	}
	stop := func() {
		sending = false
		w.stopped[c.id].Store(true)
	}
	for i := 0; i < netWindow && sending; i++ {
		if !more() {
			stop()
			break
		}
		if err := w.send(c); err != nil {
			return err
		}
	}
	c.conn.SetReadDeadline(time.Time{})
	var drainEnd time.Time
	for {
		if !sending && drainEnd.IsZero() {
			drainEnd = time.Now().Add(10 * time.Second)
		}
		if !sending {
			if c.check.next[c.id] == w.sent[c.id].Load() && w.stopped[other].Load() &&
				c.check.next[other] == w.sent[other].Load() {
				return nil
			}
			if time.Now().After(drainEnd) {
				return errors.New("lines still missing 10 s after the last send")
			}
			c.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		}
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			var ne net.Error
			if !sending && errors.As(err, &ne) && ne.Timeout() {
				c.carry = append(c.carry, line...)
				continue
			}
			return err
		}
		if len(c.carry) > 0 {
			line = append(c.carry, line...)
			c.carry = c.carry[:0]
		}
		sender, seq, payload, ok := parseLine(line)
		if !ok {
			c.check.errs.addf("malformed line %q", line)
			c.failed++
			continue
		}
		good := c.check.observe(sender, seq, payload)
		if sender != c.id {
			continue
		}
		if !good {
			c.failed++
		}
		c.lat.add(int64(time.Since(c.sentAt[seq%netWindow])))
		if c.id == 0 && seq%netProbeEvery == 0 {
			w.postProbe()
		}
		if sending {
			if !more() {
				stop()
				continue
			}
			if err := w.send(c); err != nil {
				return err
			}
		}
	}
}

// send writes the client's next line: "<sender> <seq> <payload>\n".
func (w *netLines) send(c *chatClient) error {
	seq := w.sent[c.id].Load()
	b := append(c.buf[:0], byte('0'+c.id), ' ')
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, ' ')
	b = append(b, c.check.payload(c.id, seq)...)
	b = append(b, '\n')
	c.buf = b
	c.sentAt[seq%netWindow] = time.Now()
	if _, err := c.conn.Write(b); err != nil {
		return err
	}
	w.sent[c.id].Add(1)
	return nil
}

// parseLine splits "<sender> <seq> <payload>\n".
func parseLine(line []byte) (sender int, seq int64, payload []byte, ok bool) {
	if len(line) < 4 || line[1] != ' ' || line[len(line)-1] != '\n' {
		return 0, 0, nil, false
	}
	sender = int(line[0] - '0')
	i := 2
	for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
		seq = seq*10 + int64(line[i]-'0')
	}
	if i == 2 || i >= len(line) || line[i] != ' ' {
		return 0, 0, nil, false
	}
	return sender, seq, line[i+1 : len(line)-1], true
}

func (w *netLines) run(d time.Duration) {
	before := w.sent[0].Load() + w.sent[1].Load()
	w.statFrom, w.msgFrom = w.srv.Reactor().Stats(), w.srv.Messages()
	if err := w.drive(time.Now().Add(d), 0); err != nil {
		w.clients[0].check.errs.addf("%v", err)
	}
	w.statTo, w.msgTo = w.srv.Reactor().Stats(), w.srv.Messages()
	w.runLines = w.sent[0].Load() + w.sent[1].Load() - before
}

func (w *netLines) progress() int64 { return w.sent[0].Load() + w.sent[1].Load() }

func (w *netLines) teardown() {
	for _, c := range w.clients {
		if c != nil {
			c.conn.Close()
		}
	}
	if w.srv != nil {
		w.srv.Stop()
	}
}

func (w *netLines) outcome() outcome {
	o := outcome{attempted: w.runLines}
	var sent [2]int64
	for i := range sent {
		sent[i] = w.sent[i].Load()
	}
	var lat []*sampler
	for _, c := range w.clients {
		o.failed += c.failed
		o.checks.merge(c.check.finish(sent))
		lat = append(lat, c.lat)
	}
	if n := w.sendErr.Load(); n != 0 {
		o.checks.addf("%d Client.Send calls failed", n)
	}
	o.lat, o.probe = lat, []*sampler{w.probe}
	return o
}

func (w *netLines) layers(sum map[int32]layerStats, m map[string]float64) {
	m["netloop.handler_us"] = sum[spHandler].p50 / 1e3
	m["netloop.send_ns"] = sum[spSend].p50
	m["eventloop.queue_delay_us"] = sum[spQueueDelay].p50 / 1e3
	m["eventloop.dispatch_us"] = sum[spDispatch].p50 / 1e3
	m["eventloop.queue_peak"] = float64(w.srv.Loop().QueuePeak())
	lines := float64(w.runLines)
	if lines == 0 {
		return
	}
	a, b := w.statFrom, w.statTo
	m["reactor.read_events_per_op"] = float64(b.ReadEvents-a.ReadEvents) / lines
	m["reactor.write_events_per_op"] = float64(b.WriteEvents-a.WriteEvents) / lines
	m["reactor.wakeups_per_op"] = float64(b.Wakeups-a.Wakeups) / lines
	m["reactor.partial_writes_per_op"] = float64(b.PartialWrites-a.PartialWrites) / lines
	if reads := b.ReadEvents - a.ReadEvents; reads > 0 {
		m["reactor.lines_per_read"] = float64(w.msgTo-w.msgFrom) / float64(reads)
	}
}
