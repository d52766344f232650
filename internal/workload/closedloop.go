package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// ClosedLoop is a finite-window request/response client at every
// terminal: at most Window requests outstanding, each ejected reply
// credits a new injection, so offered load self-throttles at saturation
// and sweeps report achieved throughput instead of open-loop
// divergence. Requests travel on vnet 0 and replies on the last vnet —
// the classic message-class separation that keeps the request/reply
// dependency cycle out of the network.
//
// State discipline: Generate touches only the source terminal's state
// (window slot check, think timer, pending-reply queue), while request
// retirement and reply scheduling happen in OnEject during the
// simulator's commit, each touching only the ejecting terminal's state.
// Think times draw from per-terminal splitmix streams derived with
// sim.EntitySeed, so results do not depend on the order terminals are
// visited or packets ejected in within a cycle.
type ClosedLoop struct {
	pat      traffic.Pattern
	window   int32
	rate     float64
	pIssue   float64
	reqLen   int
	respLen  int
	think    int64
	thinkMax int64
	vnets    int
	seed     int64

	outstanding []int32
	thinkUntil  []int64
	pend        [][]pendingReply
	issued      []int64
	completed   []int64
	thinkSrc    []thinkStream
	quiesced    bool
	auditErr    error
}

type pendingReply struct {
	dst    int32
	length int32
}

// thinkStream is a per-terminal splitmix64, the same generator the
// engine's entity streams use, seeded from (seed, "W:<t>").
type thinkStream struct{ state uint64 }

func (s *thinkStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *thinkStream) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// paretoShape is the shape of the bounded-Pareto think-time draws.
const paretoShape = 1.5

// newClosedLoop builds the client set of s, a closed-mode spec Build has
// validated and normalized, offering rate request flits/terminal/cycle
// over pat. It checks only what the spec cannot know: the network's vnets,
// the rate, and the engine's packet-length cap.
func newClosedLoop(s Spec, pat traffic.Pattern, rate float64, vnets, maxPktLen int, seed int64) (*ClosedLoop, error) {
	switch {
	case vnets < 2:
		return nil, fmt.Errorf("workload: closed loop needs >= 2 vnets to separate requests and replies, got %d", vnets)
	case rate <= 0:
		return nil, fmt.Errorf("workload: closed loop needs a positive rate")
	case s.ReqLen > maxPktLen:
		return nil, fmt.Errorf("workload: request length %d outside (0,%d]", s.ReqLen, maxPktLen)
	case s.RespLen > maxPktLen:
		return nil, fmt.Errorf("workload: response length %d outside (0,%d]", s.RespLen, maxPktLen)
	}
	return &ClosedLoop{
		pat:      pat,
		window:   int32(s.Window),
		rate:     rate,
		pIssue:   min(rate/float64(s.ReqLen), 1),
		reqLen:   s.ReqLen,
		respLen:  s.RespLen,
		think:    s.Think,
		thinkMax: s.ThinkMax,
		vnets:    vnets,
		seed:     seed,
	}, nil
}

// Name implements sim.TrafficGen.
func (cl *ClosedLoop) Name() string {
	return fmt.Sprintf("closed_loop(%s,W=%d)@%.3f", cl.pat.Name(), cl.window, cl.rate)
}

// PrepareTerminals implements sim.TrafficPrep.
func (cl *ClosedLoop) PrepareTerminals(n int) {
	if len(cl.outstanding) >= n {
		return
	}
	cl.outstanding = make([]int32, n)
	cl.thinkUntil = make([]int64, n)
	cl.pend = make([][]pendingReply, n)
	cl.issued = make([]int64, n)
	cl.completed = make([]int64, n)
	cl.thinkSrc = make([]thinkStream, n)
	for i := range cl.thinkSrc {
		cl.thinkSrc[i].state = uint64(sim.EntitySeed(cl.seed, "W:"+strconv.Itoa(i)))
	}
}

// Generate implements sim.TrafficGen: first flush replies this server
// owes (queued by OnEject at commit, so the slice is stable during the
// parallel phase), then issue a new request if a window slot is free
// and the think timer expired.
func (cl *ClosedLoop) Generate(cycle int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	if q := cl.pend[src]; len(q) > 0 {
		for _, r := range q {
			emit(sim.PacketSpec{Dst: int(r.dst), Length: int(r.length), VNet: cl.vnets - 1})
		}
		cl.pend[src] = q[:0]
	}
	if cl.quiesced || cl.outstanding[src] >= cl.window || cycle < cl.thinkUntil[src] {
		return
	}
	if rng.Float64() >= cl.pIssue {
		return
	}
	dst := cl.pat.Dest(src, rng)
	if dst == src {
		return
	}
	emit(sim.PacketSpec{Dst: dst, Length: cl.reqLen, VNet: 0})
	cl.outstanding[src]++
	cl.issued[src]++
}

// OnEject implements sim.TrafficEjectObserver, called in the serial
// commit for every ejected packet. A reply retires its requester's
// window slot and starts the think timer; a request schedules the reply
// the server owes.
func (cl *ClosedLoop) OnEject(p *sim.Packet) {
	if p.VNet == cl.vnets-1 {
		t := p.Dst
		if t < 0 || t >= len(cl.outstanding) {
			cl.fail("reply for unknown terminal %d", t)
			return
		}
		if cl.outstanding[t] <= 0 {
			cl.fail("terminal %d received a reply with no outstanding request", t)
			return
		}
		cl.outstanding[t]--
		cl.completed[t]++
		if cl.think > 0 {
			cl.thinkUntil[t] = p.EjectCycle + cl.drawThink(t)
		}
		return
	}
	if p.VNet == 0 {
		srv := p.Dst
		if srv < 0 || srv >= len(cl.pend) {
			cl.fail("request for unknown terminal %d", srv)
			return
		}
		cl.pend[srv] = append(cl.pend[srv], pendingReply{dst: int32(p.Src), length: int32(cl.respLen)})
	}
}

// drawThink samples the bounded-Pareto think time for terminal t.
func (cl *ClosedLoop) drawThink(t int) int64 {
	u := cl.thinkSrc[t].float64()
	if u > 1-1e-12 {
		u = 1 - 1e-12
	}
	d := float64(cl.think) * math.Pow(1-u, -1/paretoShape)
	if d > float64(cl.thinkMax) {
		d = float64(cl.thinkMax)
	}
	return int64(d)
}

func (cl *ClosedLoop) fail(format string, args ...any) {
	if cl.auditErr == nil {
		cl.auditErr = fmt.Errorf("workload: "+format, args...)
	}
}

// Quiesce implements sim.TrafficQuiescer: during drain the clients stop
// issuing requests but keep answering the ones already in flight, so
// the network can reach zero in-window residue.
func (cl *ClosedLoop) Quiesce(on bool) { cl.quiesced = on }

// WindowLimit implements sim.WindowedTraffic.
func (cl *ClosedLoop) WindowLimit() int { return int(cl.window) }

// Outstanding implements sim.WindowedTraffic.
func (cl *ClosedLoop) Outstanding(t int) int {
	if t < 0 || t >= len(cl.outstanding) {
		return 0
	}
	return int(cl.outstanding[t])
}

// InWindow implements sim.WindowedTraffic: total outstanding requests.
func (cl *ClosedLoop) InWindow() int64 {
	var total int64
	for _, o := range cl.outstanding {
		total += int64(o)
	}
	return total
}

// AuditWindows implements sim.WindowedTraffic: the first internal
// accounting violation (sticky), or nil.
func (cl *ClosedLoop) AuditWindows() error {
	if cl.auditErr != nil {
		return cl.auditErr
	}
	var issued, completed int64
	for i := range cl.issued {
		issued += cl.issued[i]
		completed += cl.completed[i]
		if got := int64(cl.outstanding[i]); got != cl.issued[i]-cl.completed[i] {
			return fmt.Errorf("workload: terminal %d outstanding %d != issued %d - completed %d",
				i, got, cl.issued[i], cl.completed[i])
		}
	}
	if completed > issued {
		return fmt.Errorf("workload: %d replies retired but only %d requests issued", completed, issued)
	}
	return nil
}

// Issued reports the total requests issued (for tests and reporting).
func (cl *ClosedLoop) Issued() int64 {
	var total int64
	for _, v := range cl.issued {
		total += v
	}
	return total
}

// Completed reports the total requests retired by a reply.
func (cl *ClosedLoop) Completed() int64 {
	var total int64
	for _, v := range cl.completed {
		total += v
	}
	return total
}
