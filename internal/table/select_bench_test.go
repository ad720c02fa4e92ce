package table_test

import (
	"testing"

	"ringo/internal/gen"
	"ringo/internal/table"
)

// BenchmarkSelectJoinRound is the select-to-join chain of one table-explore
// round over that workload's posts table (20 000 questions, about 50 000
// rows): filter JP P Tag = Java and Score >= 5, select Q JP Type ==
// question (a scan of a selection), select A P Type == answer (an equality
// index lookup, as a warm session serves it) and join QA Q A AcceptedId
// PostId. Run with -cpu 1, the workload's GOMAXPROCS, and -benchmem: no
// step copies a column the join does not read.
func BenchmarkSelectJoinRound(b *testing.B) {
	cfg := gen.DefaultSOConfig()
	cfg.Questions, cfg.Users = 20_000, 1000
	p, err := gen.StackOverflowPosts(cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := table.BuildEqIndex(p, "Type", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jp, err := p.SelectExpr("Tag = Java and Score >= 5")
		if err != nil {
			b.Fatal(err)
		}
		q, err := jp.Select("Type", table.EQ, "question")
		if err != nil {
			b.Fatal(err)
		}
		bm, ok := idx.Lookup(p, table.EQ, "answer")
		if !ok {
			b.Fatal("the index does not serve Type == answer")
		}
		a, err := p.SelectBitmap(bm)
		if err != nil {
			b.Fatal(err)
		}
		qa, err := q.Join(a, "AcceptedId", "PostId")
		if err != nil || qa.NumRows() == 0 {
			b.Fatalf("join: %d rows, %v", qa.NumRows(), err)
		}
	}
}
