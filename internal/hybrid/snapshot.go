package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/rsn"
	"repro/internal/secspec"
)

// SnapshotSchema versions the snapshot wire encoding. Bump it when the
// layout below changes; InitFrom rejects other versions.
const SnapshotSchema = "rsnsec.hybrid-snapshot/v1"

// ErrStructuralDelta reports an edit script that changes the register
// set. The fixed infrastructure of an Analysis — the combined index
// space, the bridged dependency matrices — is built over a concrete
// register list, so such deltas need a fresh Analysis over the derived
// network instead of a dirty-cone update (exp.SecureDelta does this
// fallback automatically).
var ErrStructuralDelta = errors.New("hybrid: delta changes the register set; a fresh Analysis is required")

// Snapshot is the serializable attribute fixed point of one wiring: the
// public form of the propagation cache that seeds incremental
// re-analysis. A snapshot pairs a private clone of the wiring with the
// per-node attribute arrays, so restoring it into a compatible Analysis
// re-establishes exactly the state from which propagateDelta runs only
// the dirty cone of the next edit.
type Snapshot struct {
	nw      *rsn.Network
	attrIn  []secspec.CatSet
	attrOut []secspec.CatSet
}

// Snapshot computes (or fetches from the cache) the attribute fixed
// point of the network's current wiring and returns it in serializable
// form. The network must have the analysis's register set.
func (a *Analysis) Snapshot(nw *rsn.Network) (*Snapshot, error) {
	if err := a.compatible(nw); err != nil {
		return nil, err
	}
	p := a.fixedPoint(nw)
	return &Snapshot{
		nw:      nw.Clone(),
		attrIn:  append([]secspec.CatSet(nil), p.attrIn...),
		attrOut: append([]secspec.CatSet(nil), p.attrOut...),
	}, nil
}

// Network returns a copy of the wiring the snapshot belongs to.
func (s *Snapshot) Network() *rsn.Network { return s.nw.Clone() }

// Nodes returns the number of attribute-carrying propagation nodes
// (combined indices plus mux pseudo-nodes).
func (s *Snapshot) Nodes() int { return len(s.attrIn) }

// EncodedWidth returns an upper bound on the byte length of Encode,
// letting callers size buffers once (the zenodb EncodedWidth/InitFrom
// round-trip idiom).
func (s *Snapshot) EncodedWidth() int {
	// schema + hash frames, node count, and ≤ binary.MaxVarintLen32
	// bytes per attribute value.
	return 2 + len(SnapshotSchema) + 2 + 64 + binary.MaxVarintLen64 +
		2*len(s.attrIn)*binary.MaxVarintLen32
}

// Encode serializes the snapshot: schema string, canonical wiring hash,
// node count, then every attrIn/attrOut value as a uvarint (CatSet is a
// small bitset, so most values take one or two bytes). The encoding is
// deterministic — the same wiring and spec always produce the same
// bytes — which keeps session records content-addressable.
func (s *Snapshot) Encode() []byte {
	buf := make([]byte, 0, s.EncodedWidth())
	appendStr := func(b []byte, v string) []byte {
		b = binary.AppendUvarint(b, uint64(len(v)))
		return append(b, v...)
	}
	buf = appendStr(buf, SnapshotSchema)
	buf = appendStr(buf, rsn.CanonicalHash(s.nw))
	buf = binary.AppendUvarint(buf, uint64(len(s.attrIn)))
	for _, v := range s.attrIn {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, v := range s.attrOut {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// InitFrom decodes an encoded snapshot against the wiring it claims to
// describe: the canonical hash embedded in the bytes must match nw, so
// a snapshot can never be restored onto the wrong network revision.
func InitFrom(nw *rsn.Network, data []byte) (*Snapshot, error) {
	rest := data
	readStr := func() (string, error) {
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			return "", fmt.Errorf("hybrid: snapshot truncated")
		}
		v := string(rest[k : k+int(n)])
		rest = rest[k+int(n):]
		return v, nil
	}
	schema, err := readStr()
	if err != nil {
		return nil, err
	}
	if schema != SnapshotSchema {
		return nil, fmt.Errorf("hybrid: snapshot schema %q, want %q", schema, SnapshotSchema)
	}
	hash, err := readStr()
	if err != nil {
		return nil, err
	}
	if got := rsn.CanonicalHash(nw); hash != got {
		return nil, fmt.Errorf("hybrid: snapshot wiring hash %.12s does not match network %.12s", hash, got)
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("hybrid: snapshot truncated")
	}
	rest = rest[k:]
	// Each of the 2n values takes at least one byte: bound the count by
	// what remains before allocating for it, so a corrupt count cannot
	// ask for gigabytes.
	if n > uint64(len(rest)/2) {
		return nil, fmt.Errorf("hybrid: snapshot claims %d nodes in %d bytes", n, len(rest))
	}
	s := &Snapshot{
		nw:      nw.Clone(),
		attrIn:  make([]secspec.CatSet, n),
		attrOut: make([]secspec.CatSet, n),
	}
	readCats := func(dst []secspec.CatSet) error {
		for i := range dst {
			v, k := binary.Uvarint(rest)
			if k <= 0 || v > uint64(^secspec.CatSet(0)) {
				return fmt.Errorf("hybrid: snapshot truncated or corrupt at node %d", i)
			}
			dst[i] = secspec.CatSet(v)
			rest = rest[k:]
		}
		return nil
	}
	if err := readCats(s.attrIn); err != nil {
		return nil, err
	}
	if err := readCats(s.attrOut); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("hybrid: snapshot has %d trailing bytes", len(rest))
	}
	return s, nil
}

// compatible checks that a network shares the analysis's register set
// (count and lengths) — the precondition for its indices to be valid in
// the combined index space.
func (a *Analysis) compatible(nw *rsn.Network) error {
	if len(nw.Registers) != len(a.regOffset) {
		return fmt.Errorf("%w (analysis has %d registers, network %d)",
			ErrStructuralDelta, len(a.regOffset), len(nw.Registers))
	}
	for r := range nw.Registers {
		if nw.Registers[r].Len != a.regLen[r] {
			return fmt.Errorf("%w (register R%d length %d, analysis %d)",
				ErrStructuralDelta, r, nw.Registers[r].Len, a.regLen[r])
		}
	}
	return nil
}

// Restore installs a snapshot as the analysis's cached fixed point, so
// the next Violations/ApplyDelta call re-propagates only the dirty cone
// of whatever wiring difference it sees. The snapshot must match the
// analysis's index space: same register set, and attribute arrays sized
// total+muxes. Restore replaces any previously cached state.
func (a *Analysis) Restore(s *Snapshot) error {
	if err := a.compatible(s.nw); err != nil {
		return err
	}
	if want := a.total + len(s.nw.Muxes); len(s.attrIn) != want || len(s.attrOut) != want {
		return fmt.Errorf("hybrid: snapshot has %d nodes, analysis wiring needs %d", len(s.attrIn), want)
	}
	p := &propagation{
		attrIn:  append([]secspec.CatSet(nil), s.attrIn...),
		attrOut: append([]secspec.CatSet(nil), s.attrOut...),
	}
	c := a.cache
	c.mu.Lock()
	c.p, c.nw = p, s.nw.Clone()
	c.mu.Unlock()
	return nil
}

// ApplyDelta applies an edit script to base and returns the derived
// network together with its violations, computed incrementally from the
// cached fixed point (only the dirty cone downstream of the edit is
// re-propagated; see propagateDelta for the exactness argument). Scripts
// that change the register set return ErrStructuralDelta along with the
// derived network, so callers can fall back to a fresh Analysis.
func (a *Analysis) ApplyDelta(base *rsn.Network, script *rsn.EditScript) (*rsn.Network, []Violation, error) {
	derived, err := script.Apply(base)
	if err != nil {
		return nil, nil, err
	}
	if err := a.compatible(derived); err != nil {
		return derived, nil, err
	}
	return derived, a.Violations(derived), nil
}

// WithEngine returns a shallow copy of the analysis running under a
// different engine configuration (workers, stats, tracing, context).
// The copy shares the dependency matrices AND the propagation cache, so
// per-request engine options can be threaded through a long-lived
// session analysis without losing incremental state.
func (a *Analysis) WithEngine(opts engine.Options) *Analysis {
	cp := *a
	cp.eng = opts
	return &cp
}

// InternalFFs recovers the internal (bridged-away) circuit flip-flops
// the analysis was built with — what a caller needs to rebuild an
// equivalent Analysis after a structural delta.
func (a *Analysis) InternalFFs() []netlist.FFID {
	var out []netlist.FFID
	for i := 0; i < a.nCirc; i++ {
		if !a.Denoted[i] {
			out = append(out, netlist.FFID(i))
		}
	}
	return out
}

// NumRegisters returns the register count of the analysis's fixed
// infrastructure.
func (a *Analysis) NumRegisters() int { return len(a.regOffset) }
