package migrate

import (
	"fmt"

	"odp/internal/types"
	"odp/internal/wire"
)

// Passivate moves object id "not to another active location, but rather
// to a storage device for later retrieval and activation" (§5.5). The
// capsule's activator (installed by NewHost) makes subsequent
// reactivation transparent to clients.
func (h *Host) Passivate(id string) error {
	h.mu.Lock()
	m, ok := h.objects[id]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	// Quiesce in-flight invocations before taking the snapshot; the gate
	// holds new ones back (no lock held) until we commit or reopen.
	if err := m.gate.quiesce(); err != nil {
		return fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	snap, err := m.servant.Snapshot()
	if err != nil {
		m.gate.reopen()
		return fmt.Errorf("migrate: passivate %q: %w", id, err)
	}
	meta, err := wire.EncodeAll(wire.PackedCodec{},
		[]wire.Value{m.typ.Name, m.typeRecord(), snap, m.logged})
	if err != nil {
		m.gate.reopen()
		return err
	}
	if err := h.store.PutBlob("passive/"+id, meta); err != nil {
		m.gate.reopen()
		return err
	}
	h.cap.Unexport(id)
	h.mu.Lock()
	delete(h.objects, id)
	h.mu.Unlock()
	m.gate.commitGone()
	return nil
}

// IsPassive reports whether id currently rests in the passive store.
func (h *Host) IsPassive(id string) bool {
	_, err := h.store.GetBlob("passive/" + id)
	return err == nil
}

// typeRecord is the object's type as it travels in a passive record or a
// mover: nil when the object is untyped.
func (m *managed) typeRecord() wire.Value {
	if m.typ.Name == "" {
		return nil
	}
	return types.EncodeType(m.typ)
}

// decodeType reads a type that typeRecord wrote; anything else is the
// zero (untyped) type.
func decodeType(v wire.Value) types.Type {
	if rec, ok := v.(wire.Record); ok {
		if typ, err := types.DecodeType(rec); err == nil {
			return typ
		}
	}
	return types.Type{}
}

// activate is the capsule activator hook: it reinstates passive objects
// on demand, transparently to the invoking client, as a new incarnation
// the weaver puts on the path.
func (h *Host) activate(objID string) (bool, error) {
	meta, err := h.store.GetBlob("passive/" + objID)
	if err != nil {
		return false, nil // not ours
	}
	vals, err := wire.DecodeAll(wire.PackedCodec{}, meta)
	if err != nil || len(vals) != 4 {
		return false, fmt.Errorf("migrate: corrupt passive record for %q", objID)
	}
	typeName, _ := vals[0].(string)
	snap, _ := vals[2].([]byte)
	logged, _ := vals[3].(bool)

	h.mu.Lock()
	factory, ok := h.factories[typeName]
	h.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrNoFactory, typeName)
	}
	servant := factory()
	if err := servant.Restore(snap); err != nil {
		return false, fmt.Errorf("migrate: reactivate %q: %w", objID, err)
	}
	inc := Incarnation{ID: objID, Type: decodeType(vals[1]), Servant: servant, Logged: logged}
	if _, err := h.Manage(inc); err != nil {
		// A concurrent activation may have won the race; the object is
		// live either way.
		if !h.cap.Hosts(objID) {
			return false, err
		}
	}
	_ = h.store.DeleteBlob("passive/" + objID)
	return true, nil
}
