package mc

import (
	"fmt"
	"sort"
)

// Canonical state encoding: a state has exactly one byte string, so the
// visited set can key on the encoding itself (the hash is only used to
// pick a shard). The layout is sequential:
//
//	version | per-packet (kind, router, port) | per-router (role,
//	loopPort+1, initOut+1, srcID+1, frozen, pathLen, path...) |
//	smCount, per-SM (kind, initiator, router, inPort, firstOut+1,
//	pathLen, path...) with the SM records byte-sorted
//
// Signed fields are shifted by +1 so -1 encodes as 0. Decode re-checks
// every range and canonicality rule, so any byte string it accepts
// re-encodes to itself — the FuzzMCState contract.

// encVersion guards the layout; bump on any change so stale census
// goldens and fuzz corpus entries fail loudly instead of misdecoding.
const encVersion = 1

const locNone = 0xFF

// Encode renders s into its canonical byte string.
func (in *Instance) Encode(s *State) []byte {
	buf := make([]byte, 0, 1+3*len(s.Pkts)+8*len(s.Routers)+1+8*len(s.SMs))
	buf = append(buf, encVersion)
	for _, l := range s.Pkts {
		if l.Kind == LocAt {
			buf = append(buf, l.Kind, l.Router, l.Port)
		} else {
			buf = append(buf, l.Kind, locNone, locNone)
		}
	}
	for i := range s.Routers {
		rs := &s.Routers[i]
		buf = append(buf, byte(rs.Role), byte(rs.LoopPort+1), byte(rs.InitOut+1),
			byte(rs.SrcID+1), rs.Frozen, byte(len(rs.LoopPath)))
		buf = append(buf, rs.LoopPath...)
	}
	buf = append(buf, byte(len(s.SMs)))
	if len(s.SMs) > 0 {
		recs := make([][]byte, len(s.SMs))
		for i := range s.SMs {
			recs[i] = encodeSM(&s.SMs[i])
		}
		sort.Slice(recs, func(a, b int) bool { return lessBytes(recs[a], recs[b]) })
		for _, r := range recs {
			buf = append(buf, r...)
		}
	}
	return buf
}

func encodeSM(m *SM) []byte {
	r := make([]byte, 0, 6+len(m.Path))
	r = append(r, m.Kind, m.Initiator, m.Router, m.InPort, byte(m.FirstOut+1), byte(len(m.Path)))
	return append(r, m.Path...)
}

func lessBytes(a, b []byte) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// decoder walks an encoding sequentially with range checks.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) byte(what string) (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("mc: truncated encoding at %s (offset %d)", what, d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) path(n int, maxPath, maxRadix int, what string) ([]uint8, error) {
	if n > maxPath {
		return nil, fmt.Errorf("mc: %s path length %d exceeds max %d", what, n, maxPath)
	}
	if n == 0 {
		return nil, nil
	}
	p := make([]uint8, n)
	for i := range p {
		b, err := d.byte(what + " path")
		if err != nil {
			return nil, err
		}
		// Path entries are link output ports: the local port 0 never
		// appears in a dependency walk.
		if b < 1 || int(b) >= maxRadix {
			return nil, fmt.Errorf("mc: %s path entry %d out of range", what, b)
		}
		p[i] = b
	}
	return p, nil
}

// Decode parses enc back into a State, rejecting any non-canonical or
// out-of-range encoding. A nil error guarantees Encode(state) == enc.
func (in *Instance) Decode(enc []byte) (*State, error) {
	d := &decoder{buf: enc}
	v, err := d.byte("version")
	if err != nil {
		return nil, err
	}
	if v != encVersion {
		return nil, fmt.Errorf("mc: encoding version %d, want %d", v, encVersion)
	}
	maxRadix := 0
	for r := 0; r < in.NumRouters(); r++ {
		if in.Radix(r) > maxRadix {
			maxRadix = in.Radix(r)
		}
	}
	s := &State{
		Pkts:    make([]PktLoc, len(in.Packets)),
		Routers: make([]RouterState, in.NumRouters()),
	}
	for i := range s.Pkts {
		kind, err := d.byte("packet kind")
		if err != nil {
			return nil, err
		}
		r, err := d.byte("packet router")
		if err != nil {
			return nil, err
		}
		p, err := d.byte("packet port")
		if err != nil {
			return nil, err
		}
		switch kind {
		case LocQueued, LocDelivered:
			if r != locNone || p != locNone {
				return nil, fmt.Errorf("mc: packet %d location fields must be 0xFF when not resident", i)
			}
			s.Pkts[i] = PktLoc{Kind: kind}
		case LocAt:
			if int(r) >= in.NumRouters() || int(p) >= in.Radix(int(r)) {
				return nil, fmt.Errorf("mc: packet %d at invalid VC r%d port %d", i, r, p)
			}
			s.Pkts[i] = PktLoc{Kind: kind, Router: r, Port: p}
		default:
			return nil, fmt.Errorf("mc: packet %d has invalid location kind %d", i, kind)
		}
	}
	for r := range s.Routers {
		radix := in.Radix(r)
		role, err := d.byte("role")
		if err != nil {
			return nil, err
		}
		if role >= byte(numRoles) {
			return nil, fmt.Errorf("mc: r%d invalid role %d", r, role)
		}
		loopPort, err := d.byte("loopPort")
		if err != nil {
			return nil, err
		}
		initOut, err := d.byte("initOut")
		if err != nil {
			return nil, err
		}
		srcID, err := d.byte("srcID")
		if err != nil {
			return nil, err
		}
		frozen, err := d.byte("frozen")
		if err != nil {
			return nil, err
		}
		pathLen, err := d.byte("loopPath length")
		if err != nil {
			return nil, err
		}
		rs := &s.Routers[r]
		rs.Role = Role(role)
		switch rs.Role {
		case RoleIdle, RoleProbing:
			// No loop latched: the shifted fields must hold their zero
			// forms or the encoding is non-canonical.
			if loopPort != 0 || initOut != 0 || pathLen != 0 {
				return nil, fmt.Errorf("mc: r%d role %s carries a loop latch", r, rs.Role)
			}
			rs.LoopPort, rs.InitOut = -1, -1
		default:
			// Latched ports are link ports: shifted values in [2, radix].
			if loopPort < 2 || int(loopPort) > radix || initOut < 2 || int(initOut) > radix {
				return nil, fmt.Errorf("mc: r%d role %s with invalid loop latch (%d, %d)", r, rs.Role, loopPort, initOut)
			}
			rs.LoopPort, rs.InitOut = int8(loopPort-1), int8(initOut-1)
			rs.LoopPath, err = d.path(int(pathLen), in.MaxPath, maxRadix, "loop")
			if err != nil {
				return nil, err
			}
		}
		if int(srcID) > in.NumRouters() {
			return nil, fmt.Errorf("mc: r%d invalid srcID %d", r, srcID)
		}
		rs.SrcID = int8(srcID) - 1
		if frozen&1 != 0 || frozen>>uint(radix) != 0 {
			return nil, fmt.Errorf("mc: r%d frozen mask %#x outside link ports", r, frozen)
		}
		rs.Frozen = frozen
		if (rs.SrcID >= 0) != (rs.Frozen != 0) {
			return nil, fmt.Errorf("mc: r%d srcID %d inconsistent with frozen mask %#x", r, rs.SrcID, rs.Frozen)
		}
	}
	smCount, err := d.byte("SM count")
	if err != nil {
		return nil, err
	}
	var prev []byte
	for i := 0; i < int(smCount); i++ {
		start := d.off
		kind, err := d.byte("SM kind")
		if err != nil {
			return nil, err
		}
		if kind >= numSMKinds {
			return nil, fmt.Errorf("mc: SM %d invalid kind %d", i, kind)
		}
		initiator, err := d.byte("SM initiator")
		if err != nil {
			return nil, err
		}
		router, err := d.byte("SM router")
		if err != nil {
			return nil, err
		}
		inPort, err := d.byte("SM inPort")
		if err != nil {
			return nil, err
		}
		firstOut, err := d.byte("SM firstOut")
		if err != nil {
			return nil, err
		}
		pathLen, err := d.byte("SM path length")
		if err != nil {
			return nil, err
		}
		if int(initiator) >= in.NumRouters() || int(router) >= in.NumRouters() {
			return nil, fmt.Errorf("mc: SM %d references invalid routers", i)
		}
		// SMs travel links: the arrival port is a link port.
		if inPort < 1 || int(inPort) >= in.Radix(int(router)) {
			return nil, fmt.Errorf("mc: SM %d invalid inPort %d", i, inPort)
		}
		m := SM{Kind: kind, Initiator: initiator, Router: router, InPort: inPort}
		if kind == SMProbe {
			if firstOut < 2 || int(firstOut) > in.Radix(int(initiator)) {
				return nil, fmt.Errorf("mc: probe %d invalid firstOut %d", i, firstOut)
			}
			m.FirstOut = int8(firstOut - 1)
		} else {
			if firstOut != 0 {
				return nil, fmt.Errorf("mc: %s %d carries a firstOut", smKindName(kind), i)
			}
			m.FirstOut = -1
		}
		m.Path, err = d.path(int(pathLen), in.MaxPath, maxRadix, smKindName(kind))
		if err != nil {
			return nil, err
		}
		rec := d.buf[start:d.off]
		if prev != nil && !lessBytes(prev, rec) {
			return nil, fmt.Errorf("mc: SM records not in canonical order at %d", i)
		}
		prev = rec
		s.SMs = append(s.SMs, m)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("mc: %d trailing bytes after state", len(d.buf)-d.off)
	}
	return s, nil
}
