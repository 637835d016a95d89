package exper

import (
	"bytes"
	"strings"
	"testing"
)

// tinySizing keeps report tests fast.
func tinySizing() Sizing { return Sizing{QueriesPerCell: 8, Seed: 1} }

func TestReportByID(t *testing.T) {
	for _, r := range Reports {
		got, err := ReportByID(r.ID)
		if err != nil || got.ID != r.ID {
			t.Errorf("ReportByID(%s) = %v, %v", r.ID, got.ID, err)
		}
	}
	if _, err := ReportByID("nope"); err == nil {
		t.Error("expected error for unknown report")
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := table1CostUnits(&buf, NewLab(), tinySizing()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PC1", "PC2", "cs", "cr", "ct", "ci", "co"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := figure3OutlierRobustness(&buf, NewLab(), tinySizing()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Case (1)", "Case (2)", "best-fit", "after removing"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 3 output missing %q", want)
		}
	}
}

func TestFigure5Renders(t *testing.T) {
	// Uses the 10GB database, so keep the cell tiny.
	z := Sizing{QueriesPerCell: 6, Seed: 1}
	var buf bytes.Buffer
	if err := figure5PrAlpha(&buf, NewLab(), z); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MICRO", "SELJOIN", "TPCH", "alpha", "Pr_n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 5 output missing %q", want)
		}
	}
}

func TestFigure9Renders(t *testing.T) {
	z := Sizing{QueriesPerCell: 4, Seed: 1}
	var buf bytes.Buffer
	if err := figure9Overhead(&buf, NewLab(), z); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"uniform-1G", "skewed-10G", "0.01"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 9 output missing %q", want)
		}
	}
}

func TestGridTablesShareRunsViaMemoization(t *testing.T) {
	lab := NewLab()
	z := Sizing{QueriesPerCell: 3, Seed: 1}
	var t4, t5 bytes.Buffer
	if err := table4CorrelationGrid(&t4, lab, z); err != nil {
		t.Fatal(err)
	}
	runsAfterT4 := len(lab.runCache)
	if err := table5DnGrid(&t5, lab, z); err != nil {
		t.Fatal(err)
	}
	if len(lab.runCache) != runsAfterT4 {
		t.Errorf("Table 5 triggered %d extra runs", len(lab.runCache)-runsAfterT4)
	}
	if !strings.Contains(t4.String(), "(") || !strings.Contains(t5.String(), "0.") {
		t.Error("grid tables look empty")
	}
}
