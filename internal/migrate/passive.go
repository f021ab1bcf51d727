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
	var (
		typeName string
		typeRec  wire.Value
	)
	if m.hasType {
		typeName = m.typ.Name
		typeRec = types.EncodeType(m.typ)
	}
	meta, err := wire.EncodeAll(wire.PackedCodec{},
		[]wire.Value{typeName, typeRec, snap, m.logged})
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

// activate is the capsule activator hook: it reinstates passive objects
// on demand, transparently to the invoking client, re-attaching the gate
// and any recovery logging.
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
	var opts []ExportOption
	if typeRec, ok := vals[1].(wire.Record); ok {
		if decoded, derr := types.DecodeType(typeRec); derr == nil {
			opts = append(opts, WithType(decoded))
		}
	}
	if logged {
		opts = append(opts, WithRecoveryLog(nil))
	}
	if _, err := h.Export(objID, servant, opts...); err != nil {
		// A concurrent activation may have won the race; the object is
		// live either way.
		if !h.cap.Hosts(objID) {
			return false, err
		}
	}
	_ = h.store.DeleteBlob("passive/" + objID)
	return true, nil
}
