package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// conjDB builds a table with three independent uniform columns for
// conjunction tests.
func conjDB(n int, seed int64) *DB {
	r := rand.New(rand.NewSource(seed))
	t := NewTable("t", []string{"x", "y", "z"}, n)
	for i := range n {
		for _, col := range t.Data {
			col[i] = int64(r.Intn(100))
		}
	}
	db := NewDB()
	db.Add(t)
	return db
}

func TestSeqScanConjunction(t *testing.T) {
	db := conjDB(20000, 1)
	plan := &Node{Kind: SeqScan, Table: "t", Preds: []Predicate{
		{Col: "x", Op: Lt, Lo: 50},
		{Col: "y", Op: Lt, Lo: 20},
	}}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Independent columns: combined selectivity ~ 0.5 * 0.2 = 0.1.
	if math.Abs(res.Selectivity-0.1) > 0.02 {
		t.Errorf("conjunction selectivity %v, want ~0.1", res.Selectivity)
	}
	// Every predicate is evaluated per tuple on a seq scan.
	if res.Counts.NO != 2*20000 {
		t.Errorf("NO=%v, want 40000", res.Counts.NO)
	}
}

func TestIndexScanConjunctionCounts(t *testing.T) {
	db := conjDB(10000, 2)
	plan := &Node{Kind: IndexScan, Table: "t", Preds: []Predicate{
		{Col: "x", Op: Lt, Lo: 10}, // index predicate, ~1000 fetches
		{Col: "y", Op: Lt, Lo: 50}, // residual, ~halves the output
	}}
	plan.Finalize()
	res, err := Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Fetches follow the index predicate, not the final output.
	if res.Counts.NR < 800 || res.Counts.NR > 1200 {
		t.Errorf("NR=%v, want ~1000 (index-predicate matches)", res.Counts.NR)
	}
	if res.M >= res.Counts.NR {
		t.Errorf("output %v not below fetches %v", res.M, res.Counts.NR)
	}
	// One residual predicate evaluated per fetched tuple.
	if res.Counts.NO != res.Counts.NR {
		t.Errorf("NO=%v, want %v", res.Counts.NO, res.Counts.NR)
	}
}

func TestIndexScanRequiresPredicate(t *testing.T) {
	n := &Node{Kind: IndexScan, Table: "t"}
	if err := n.Validate(); err == nil {
		t.Error("expected validation error for index scan without predicate")
	}
}

// Property: conjunction selectivity equals the brute-force fraction, and
// never exceeds the most selective single predicate.
func TestConjunctionMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := conjDB(500+r.Intn(500), seed)
		tbl := db.Tables["t"]
		preds := []Predicate{
			{Col: "x", Op: Lt, Lo: int64(10 + r.Intn(90))},
			{Col: "z", Op: Ge, Lo: int64(r.Intn(50))},
		}
		plan := &Node{Kind: SeqScan, Table: "t", Preds: preds}
		plan.Finalize()
		res, err := Run(db, plan)
		if err != nil {
			return false
		}
		var brute float64
		for i := range tbl.NumRows() {
			if preds[0].Matches(tbl.Data[0][i]) && preds[1].Matches(tbl.Data[2][i]) {
				brute++
			}
		}
		return res.M == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScanCountsFormulae(t *testing.T) {
	seq := ScanCounts(SeqScan, 1000, 1000, 3)
	if seq.NO != 3000 || seq.NT != 1000 || seq.NS != 10 {
		t.Errorf("seq counts %+v", seq)
	}
	idx := ScanCounts(IndexScan, 1000, 100, 2)
	if idx.NR != 100 || idx.NI != 100 || idx.NO != 100 {
		t.Errorf("index counts %+v", idx)
	}
	single := ScanCounts(IndexScan, 1000, 100, 1)
	if single.NO != 0 {
		t.Errorf("single-pred index NO=%v, want 0", single.NO)
	}
}
