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
// the update-query workload starts from, from memory and from a file, and
// parses in memory the two tables the other loading workloads read: the
// cold-pipeline's 25 000-row R-MAT edge table (cold) and table-explore's
// posts table with String and Float cells (posts). Run with -benchmem: a
// file load allocates the columns plus one copy of the input, in a fixed
// number of objects; a reader load adds io.ReadAll's buffer growth steps.
func BenchmarkLoadTSV(b *testing.B) {
	src := gen.RMATTable(15, 200_000, 1)
	data := tsvBytes(b, src)
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
	cfg := gen.DefaultSOConfig()
	cfg.Questions, cfg.Users = 20_000, 1_000
	posts, err := gen.StackOverflowPosts(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		t    *table.Table
	}{{"cold", gen.RMATTable(12, 25_000, 1)}, {"posts", posts}} {
		data := tsvBytes(b, in.t)
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := table.ParseTSV(data, in.t.Schema(), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tsvBytes renders t as headerless TSV.
func tsvBytes(b *testing.B, t *table.Table) []byte {
	var buf bytes.Buffer
	if err := t.SaveTSV(&buf, false); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}
