// Command urm-gen emits the synthetic evaluation environment as files:
// the source and target schemas (JSON), the scored correspondences (CSV), the
// derived possible mappings (JSON) and the generated source instance (one CSV
// per relation).  It exists so the matching and data artifacts used by the
// benchmarks can be inspected or consumed by external tools.
//
// Usage:
//
//	urm-gen -target Excel -mappings 100 -size 40 -out ./artifacts
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	urm "github.com/probdb/urm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "urm-gen:", err)
		os.Exit(1)
	}
}

type schemaJSON struct {
	Name      string         `json:"name"`
	Relations []relationJSON `json:"relations"`
}

type relationJSON struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
}

type mappingJSON struct {
	ID              string     `json:"id"`
	Prob            float64    `json:"probability"`
	Correspondences [][]string `json:"correspondences"` // [source, target, score]
}

func run(args []string) error {
	fs := flag.NewFlagSet("urm-gen", flag.ContinueOnError)
	var (
		target   = fs.String("target", "Excel", "target schema: Excel, Noris or Paragon")
		mappings = fs.Int("mappings", 100, "number of possible mappings h")
		sizeMB   = fs.Float64("size", 40, "nominal source scale in MB, not bytes: 40 generates 423 rows, 100 generates 1,050 (the paper's 100 MB TPC-H instance has ~866,000)")
		seed     = fs.Uint64("seed", 42, "data-generation seed")
		outDir   = fs.String("out", "urm-artifacts", "output directory")
		withData = fs.Bool("data", true, "also dump the source instance as CSV files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scenario, err := urm.NewScenario(urm.ScenarioOptions{
		Target:   *target,
		Mappings: *mappings,
		SizeMB:   *sizeMB,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	if err := writeSchema(filepath.Join(*outDir, "source_schema.json"), scenario.SourceSchema); err != nil {
		return err
	}
	if err := writeSchema(filepath.Join(*outDir, "target_schema.json"), scenario.TargetSchema); err != nil {
		return err
	}
	if err := writeCorrespondences(filepath.Join(*outDir, "correspondences.csv"), scenario.Matching.Correspondences); err != nil {
		return err
	}
	if err := writeMappings(filepath.Join(*outDir, "mappings.json"), scenario.Mappings()); err != nil {
		return err
	}
	if *withData {
		for _, name := range scenario.DB.RelationNames() {
			rel := scenario.DB.Relation(name)
			if err := writeRelation(filepath.Join(*outDir, "data_"+name+".csv"), rel); err != nil {
				return err
			}
		}
	}
	fmt.Printf("wrote %s scenario (h=%d, nominal %gMB, %d source rows) to %s\n",
		scenario.Target, len(scenario.Mappings()), *sizeMB, scenario.DB.NumRows(), *outDir)
	return nil
}

func writeSchema(path string, s *urm.Schema) error {
	out := schemaJSON{Name: s.Name}
	for _, rel := range s.Relations {
		rj := relationJSON{Name: rel.Name}
		for _, c := range rel.Columns {
			rj.Columns = append(rj.Columns, c.Name)
		}
		out.Relations = append(out.Relations, rj)
	}
	return writeJSON(path, out)
}

func writeCorrespondences(path string, corrs []urm.Correspondence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"source", "target", "score"}); err != nil {
		return err
	}
	for _, c := range corrs {
		if err := w.Write([]string{c.Source.String(), c.Target.String(), fmt.Sprintf("%.3f", c.Score)}); err != nil {
			return err
		}
	}
	return nil
}

func writeMappings(path string, maps urm.MappingSet) error {
	var out []mappingJSON
	for _, m := range maps {
		mj := mappingJSON{ID: m.ID, Prob: m.Prob}
		for _, c := range m.Correspondences {
			mj.Correspondences = append(mj.Correspondences,
				[]string{c.Source.String(), c.Target.String(), fmt.Sprintf("%.3f", c.Score)})
		}
		out = append(out, mj)
	}
	return writeJSON(path, out)
}

func writeRelation(path string, rel *urm.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write(rel.Columns); err != nil {
		return err
	}
	for _, row := range rel.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		if err := w.Write(cells); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
