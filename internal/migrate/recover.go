package migrate

import (
	"context"
	"fmt"

	"odp/internal/wire"
)

// Checkpoint writes a recovery snapshot for object id and truncates its
// interaction log: the snapshot subsumes everything logged so far.
func (h *Host) Checkpoint(id string) error {
	h.mu.Lock()
	m, ok := h.objects[id]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	if !m.logged {
		return fmt.Errorf("migrate: %q has no recovery log (manage it Logged)", id)
	}
	snap, err := m.servant.Snapshot()
	if err != nil {
		return fmt.Errorf("migrate: checkpoint %q: %w", id, err)
	}
	if err := h.store.PutBlob("ckpt/"+id, snap); err != nil {
		return err
	}
	return h.store.TruncateLog("oplog/" + id)
}

// Recover reinstates object id on this host from its last checkpoint and
// interaction log — "when recovery occurs, the replacement object can
// mirror exactly the state of its predecessor" (§5.5). The store must be
// the (surviving) store the crashed host wrote to; the factory for
// typeName must be registered. The recovered object is exported under its
// original id as a logged incarnation skipping readOnly, and the
// relocator learns the new location.
func (h *Host) Recover(ctx context.Context, id, typeName string, readOnly map[string]bool, epoch uint32) (wire.Ref, error) {
	h.mu.Lock()
	factory, ok := h.factories[typeName]
	h.mu.Unlock()
	if !ok {
		return wire.Ref{}, fmt.Errorf("%w: %q", ErrNoFactory, typeName)
	}
	servant := factory()
	if snap, err := h.store.GetBlob("ckpt/" + id); err == nil {
		if err := servant.Restore(snap); err != nil {
			return wire.Ref{}, fmt.Errorf("migrate: restore checkpoint %q: %w", id, err)
		}
	}
	recs, err := h.store.ReadLog("oplog/" + id)
	if err != nil {
		return wire.Ref{}, err
	}
	for i, rec := range recs {
		vals, err := wire.DecodeAll(wire.PackedCodec{}, rec)
		if err != nil || len(vals) != 2 {
			return wire.Ref{}, fmt.Errorf("migrate: corrupt log record %d for %q", i, id)
		}
		op, _ := vals[0].(string)
		args, _ := vals[1].(wire.List)
		if _, _, err := servant.Dispatch(ctx, op, args); err != nil {
			return wire.Ref{}, fmt.Errorf("migrate: replay %q op %d (%s): %w", id, i, op, err)
		}
	}
	ref, err := h.Manage(Incarnation{ID: id, Servant: servant, Logged: true, ReadOnly: readOnly})
	if err != nil {
		return wire.Ref{}, err
	}
	ref.Epoch = epoch
	if h.registrar != nil {
		h.registrar.Register(ref)
	}
	return ref, nil
}
