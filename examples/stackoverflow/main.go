// Stackoverflow reproduces the paper's §4.1 demo: finding the top Java
// experts in a StackOverflow-like Q&A community. The pipeline is exactly
// the one shown in the paper's Python listing:
//
//	P  = ringo.LoadTableTSV(schema, 'posts.tsv')
//	JP = ringo.Select(P, 'Tag=Java')
//	Q  = ringo.Select(JP, 'Type=question')
//	A  = ringo.Select(JP, 'Type=answer')
//	QA = ringo.Join(Q, A, 'AnswerId', 'PostId')
//	G  = ringo.ToGraph(QA, 'UserId-1', 'UserId-2')
//	PR = ringo.GetPageRank(G)
//	S  = ringo.TableFromHashMap(PR, 'User', 'Scr')
//
// The module is offline, so a seeded generator with the site's Zipf skew
// stands in for the real dump (see internal/gen).
package main

import (
	"flag"
	"fmt"
	"log"

	"ringo"
)

func main() {
	questions := flag.Int("questions", 20_000, "number of questions to generate")
	tag := flag.String("tag", "Java", "tag to find experts for")
	topK := flag.Int("top", 10, "number of experts to report")
	flag.Parse()

	cfg := ringo.DefaultSOConfig()
	cfg.Questions = *questions
	posts, err := ringo.GenStackOverflowPosts(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("posts table: %d rows (questions and answers)\n", posts.NumRows())

	// JP = Select(P, 'Tag=Java'): narrow to the topic of interest.
	jp, err := ringo.Select(posts, "Tag", ringo.EQ, *tag)
	if err != nil {
		log.Fatal(err)
	}
	q, err := ringo.Select(jp, "Type", ringo.EQ, "question")
	if err != nil {
		log.Fatal(err)
	}
	a, err := ringo.Select(jp, "Type", ringo.EQ, "answer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s posts: %d questions, %d answers\n", *tag, q.NumRows(), a.NumRows())

	// QA = Join(Q, A, 'AcceptedId', 'PostId'): each row pairs a question
	// with its accepted answer. Both sides carry a UserId column, so the
	// join renames them UserId-1 (asker) and UserId-2 (answerer).
	qa, err := ringo.Join(q, a, "AcceptedId", "PostId")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted question-answer pairs: %d\n", qa.NumRows())

	// G = ToGraph(QA, 'UserId-1', 'UserId-2'): an edge means "this user's
	// answer was accepted by that asker".
	g, err := ringo.ToGraph(qa, "UserId-1", "UserId-2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expertise graph: %d users, %d acceptance edges\n", g.NumNodes(), g.NumEdges())

	// PR = GetPageRank(G): users whose answers are accepted by other
	// well-regarded users score highest.
	pr := ringo.GetPageRank(g)
	experts, err := ringo.TableFromMap(pr, "User", "Scr")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("top %d %s experts by PageRank:\n", *topK, *tag)
	users, _ := experts.IntCol("User")
	scores, _ := experts.FloatCol("Scr")
	for i := 0; i < *topK && i < experts.NumRows(); i++ {
		u, _ := g.Index(users[i])
		fmt.Printf("  %2d. user %-8d score %.5f  (accepted answers: %d)\n",
			i+1, users[i], scores[i], g.InDeg(u))
	}

	// Alternative expertise measure, as the demo invites: HITS authorities.
	hits := ringo.GetHits(g, 20)
	fmt.Println("top 3 by HITS authority for comparison:")
	for i, s := range ringo.TopK(hits.Authority, 3) {
		fmt.Printf("  %2d. user %-8d authority %.5f\n", i+1, s.ID, s.Score)
	}

	// The demo's alternative construction: "one way to build a graph is to
	// connect users who answered the same question" — a self-join of the
	// answers table on the question id.
	coAnswer, err := ringo.Join(a, a, "ParentId", "ParentId")
	if err != nil {
		log.Fatal(err)
	}
	ug, err := ringo.ToUGraph(coAnswer, "UserId-1", "UserId-2")
	if err != nil {
		log.Fatal(err)
	}
	// Self-pairs produce self-loops; they do not affect the communities.
	comm, modularity := ringo.Louvain(ug, 10)
	sizes := map[int]int{}
	for _, c := range comm {
		sizes[c]++
	}
	fmt.Printf("\nco-answer graph: %d users, %d edges; %d Louvain communities (modularity %.3f)\n",
		ug.NumNodes(), ug.NumEdges(), len(sizes), modularity)
}
