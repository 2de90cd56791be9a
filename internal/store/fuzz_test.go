package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path"
	"testing"
)

// FuzzRecover holds recovery to its contract over arbitrary disk contents.
// The input is one scenario's WAL: raw bytes when framed is false — which
// almost never pass the checksum, so they exercise the scanner — or, when
// framed is true, a sequence of record payloads (each prefixed by its u16
// little-endian length) framed with valid checksums, which reach the record
// decoder and the replay checks; a leading snapshot record goes to the
// snapshot file instead.  Recover must not panic, and the scenario must
// recover, be quarantined with ErrCorrupt, or be removed as garbage.  A
// recovered state, registered on a fresh store and recovered again, is equal
// to itself bit for bit.  LoadAux over the same bytes returns the payload or
// ErrCorrupt.  The seed corpus in testdata/fuzz holds the store tests'
// mutation sequence and the WALs of testdata/v1-append-row.
//
//	go test ./internal/store -run '^$' -fuzz '^FuzzRecover$' -fuzztime 15s
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, framed bool, data []byte) {
		mem := NewMemFS()
		st := openTestStore(t, mem)
		sdir := path.Join(st.scenariosDir(), "test")
		wal, aux := data, data
		var payloads [][]byte
		oneFrame := false // aux holds exactly one frame: LoadAux must return it
		if framed {
			for rest := data; len(rest) >= 2; {
				n := min(int(binary.LittleEndian.Uint16(rest)), len(rest)-2)
				payloads = append(payloads, rest[2:2+n])
				rest = rest[2+n:]
			}
			aux = []byte(auxMagic)
			for _, p := range payloads {
				aux = append(aux, frame(p)...)
			}
			oneFrame = len(payloads) == 1
			if len(payloads) > 0 && len(payloads[0]) > 0 && payloads[0][0] == recSnapshot {
				writeFile(t, mem, path.Join(sdir, snapFile), append([]byte(snapMagic), frame(payloads[0])...))
				payloads = payloads[1:]
			}
			wal = []byte(walMagic)
			for _, p := range payloads {
				wal = append(wal, frame(p)...)
			}
		}
		writeFile(t, mem, path.Join(sdir, walFile), wal)
		writeFile(t, mem, st.auxPath("fuzz"), aux)

		rec, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(rec.Scenarios) == 1:
			got := rec.Scenarios[0].State
			again := openTestStore(t, NewMemFS())
			if _, err := again.Register(got); err != nil {
				t.Fatal(err)
			}
			rec2, err := again.Recover()
			if err != nil || len(rec2.Scenarios) != 1 {
				t.Fatalf("re-recovering a recovered state: %v, %+v", err, rec2)
			}
			stateEqual(t, "re-recovered", got, rec2.Scenarios[0].State)
		case len(rec.Quarantined) == 1:
			if !errors.Is(rec.Quarantined[0].Err, ErrCorrupt) {
				t.Fatalf("quarantined with %v, want ErrCorrupt", rec.Quarantined[0].Err)
			}
		default:
			if names, err := mem.ReadDir(st.scenariosDir()); err != nil || len(names) != 0 {
				t.Fatalf("neither recovered nor quarantined, yet not removed: %v, %v", names, err)
			}
		}

		blob, err := st.LoadAux("fuzz")
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("LoadAux = %v, want a payload or ErrCorrupt", err)
		case oneFrame && (err != nil || !bytes.Equal(blob, aux[len(auxMagic)+8:])):
			t.Fatalf("LoadAux of one frame = %q, %v; want %q", blob, err, aux[len(auxMagic)+8:])
		}
	})
}

func writeFile(t *testing.T, mem *MemFS, p string, data []byte) {
	t.Helper()
	if err := mem.MkdirAll(parentDir(p)); err != nil {
		t.Fatal(err)
	}
	f, err := mem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}
