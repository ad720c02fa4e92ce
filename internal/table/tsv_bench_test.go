package table_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/table"
)

// BenchmarkLoadTSV loads the 200 000-row, two-Int-column R-MAT edge table
// the update-query workload starts from, from memory and from a file. Run
// with -benchmem: a file load allocates the columns plus one copy of the
// input, in a fixed number of objects; a reader load adds io.ReadAll's
// buffer growth steps.
func BenchmarkLoadTSV(b *testing.B) {
	src := gen.RMATTable(15, 200_000, 1)
	var buf bytes.Buffer
	if err := src.SaveTSV(&buf, false); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(b.TempDir(), "e.tsv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	schema := src.Schema()
	b.Run("reader", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := table.LoadTSV(bytes.NewReader(data), schema, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("file", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := table.LoadTSVFile(path, schema, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
