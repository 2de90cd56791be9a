package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
)

// Auxiliary state: small named blobs — the coordinator's lease table is the
// first — persisted beside the scenario WALs with the same guarantees the
// snapshot files give: a magic header, one checksummed frame, and an atomic
// tmp → fsync → rename → SyncDir replacement, so a crash leaves either the
// previous blob or the new one, never a torn mix.  Aux blobs live under
// <dir>/aux/<name>.aux and are versioned by the store's FormatVersion like
// everything else in the directory.

const auxMagic = "URMAUX1\n"

// auxDir is where aux blobs live.
func (st *Store) auxDir() string { return path.Join(st.dir, "aux") }

func (st *Store) auxPath(name string) string { return path.Join(st.auxDir(), name+".aux") }

// validAuxName rejects names that would escape the aux directory or collide
// with the tmp suffix.
func validAuxName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty aux name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("store: aux name %q: only [a-z0-9_-] allowed", name)
		}
	}
	return nil
}

// SaveAux atomically replaces the named aux blob (replaceFile).  The write
// is always fsynced: aux blobs are rare and small, like registrations.
func (st *Store) SaveAux(name string, payload []byte) error {
	if err := validAuxName(name); err != nil {
		return err
	}
	err := st.fs.MkdirAll(st.auxDir())
	if err == nil {
		err = st.replaceFile(st.auxDir(), name+".aux", name+".aux.tmp", append([]byte(auxMagic), frame(payload)...))
	}
	if err != nil {
		return fmt.Errorf("store: aux %s: %w", name, err)
	}
	return nil
}

// ErrAuxNotFound marks a LoadAux of a blob that was never saved.
var ErrAuxNotFound = errors.New("store: aux state not found")

// LoadAux reads the named aux blob.  A missing blob returns ErrAuxNotFound;
// any other content than magic plus one checksummed frame returns ErrCorrupt
// (readFrameFile) — unlike a WAL tail, an aux blob is written atomically, so
// any damage is real corruption rather than a crash artifact.
func (st *Store) LoadAux(name string) ([]byte, error) {
	if err := validAuxName(name); err != nil {
		return nil, err
	}
	data, err := st.fs.ReadFile(st.auxPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrAuxNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("store: aux %s: %w", name, err)
	}
	payload, err := readFrameFile(data, auxMagic)
	if err != nil {
		return nil, fmt.Errorf("aux %s: %w", name, err)
	}
	return payload, nil
}
