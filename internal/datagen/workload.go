package datagen

import (
	"fmt"
	"strings"
	"sync"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/match"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// HotAddress is the exact street value planted on hot rows; the workload's
// address predicates select it.
const HotAddress = "1 Central Road"

// Dataset bundles everything one experiment needs: the source schema and
// instance, a target schema, its correspondences and the derived possible
// mappings.
type Dataset struct {
	TargetName TargetName
	Source     *schema.Schema
	Target     *schema.Schema
	DB         *engine.Instance
	Matching   *schema.Matching
}

// DatasetOptions configures NewDataset.
type DatasetOptions struct {
	// Target selects the target schema (default Excel, the paper's default).
	Target TargetName
	// NumMappings is h, the number of possible mappings (default 100).
	NumMappings int
	// SizeMB is the source instance's nominal scale (default 100, 1,050 rows;
	// see SourceOptions.SizeMB).
	SizeMB float64
	// Seed drives the deterministic generator.
	Seed uint64
}

func (o DatasetOptions) withDefaults() DatasetOptions {
	if o.Target == "" {
		o.Target = TargetExcel
	}
	if o.NumMappings <= 0 {
		o.NumMappings = 100
	}
	if o.SizeMB <= 0 {
		o.SizeMB = 100
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// NewDataset generates the source instance, loads the target schema and
// correspondences, and derives the top-h possible mappings.
func NewDataset(opts DatasetOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	if _, err := ParseTarget(string(opts.Target)); err != nil {
		return nil, err
	}
	src := SourceSchema()
	tgt := TargetSchema(opts.Target)
	corrs := Correspondences(opts.Target)
	mt := &schema.Matching{Source: src, Target: tgt, Correspondences: corrs}
	if err := mt.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: correspondences for %s are inconsistent: %w", opts.Target, err)
	}
	maps, err := match.KBestMappings(corrs, match.KBestOptions{K: opts.NumMappings})
	if err != nil {
		return nil, fmt.Errorf("datagen: deriving mappings for %s: %w", opts.Target, err)
	}
	mt.Mappings = maps
	db := GenerateSource(SourceOptions{SizeMB: opts.SizeMB, Seed: opts.Seed})
	return &Dataset{
		TargetName: opts.Target,
		Source:     src,
		Target:     tgt,
		DB:         db,
		Matching:   mt,
	}, nil
}

// Mappings returns the dataset's possible mappings.
func (d *Dataset) Mappings() schema.MappingSet { return d.Matching.Mappings }

// MappingsPrefix returns the h highest-scored mappings with probabilities
// renormalised, which is how the experiments sweep the mapping-set size
// without regenerating assignments.
func (d *Dataset) MappingsPrefix(h int) schema.MappingSet {
	all := d.Matching.Mappings
	if h > len(all) {
		h = len(all)
	}
	prefix := all[:h].Clone()
	prefix.NormalizeProbabilities()
	return prefix
}

// NumWorkloadQueries is the number of queries in Table III.
const NumWorkloadQueries = 10

// QueryTarget returns the target schema a Table III query runs against:
// Q1–Q5 Excel, Q6–Q7 Noris, Q8–Q10 Paragon.
func QueryTarget(id int) (TargetName, error) {
	switch {
	case id >= 1 && id <= 5:
		return TargetExcel, nil
	case id >= 6 && id <= 7:
		return TargetNoris, nil
	case id >= 8 && id <= 10:
		return TargetParagon, nil
	default:
		return "", fmt.Errorf("workload query id %d out of range 1..%d", id, NumWorkloadQueries)
	}
}

// workloadText returns the SQL text of the Table III queries, adapted to the
// synthetic instance: the selection constants are the generator's hot values,
// and every query carries an explicit projection so that answers are
// well-defined value tuples (the paper leaves some projections implicit).
func workloadText(id int) (string, error) {
	switch id {
	case 1:
		return fmt.Sprintf("SELECT orderNum FROM PO WHERE telephone = '%s' AND priority = %d AND invoiceTo = '%s'",
			HotPhone, HotPriority, HotName), nil
	case 2:
		return fmt.Sprintf("SELECT PO.orderNum FROM PO, Item WHERE quantity = %d AND itemNum = %d",
			HotQuantity, HotItem), nil
	case 3:
		return fmt.Sprintf("SELECT PO.orderNum FROM PO, Item Item1, Item Item2 "+
			"WHERE PO.orderNum = Item1.orderNum AND PO.telephone = '%s' AND Item1.itemNum = %d AND Item1.orderNum = Item2.orderNum",
			HotPhone, HotItem), nil
	case 4:
		return fmt.Sprintf("SELECT PO1.orderNum FROM PO PO1, PO PO2, Item Item1, Item Item2 "+
			"WHERE PO1.orderNum = PO2.orderNum AND Item1.orderNum = Item2.orderNum AND Item1.itemNum = %d",
			HotItem), nil
	case 5:
		return fmt.Sprintf("SELECT COUNT(*) FROM PO WHERE telephone = '%s' AND company = '%s' AND invoiceTo = '%s' AND deliverToStreet = '%s'",
			HotPhone, HotSegment, HotName, HotAddress), nil
	case 6:
		return fmt.Sprintf("SELECT orderNum FROM PO WHERE telephone = '%s' AND invoiceTo = '%s' AND deliverToStreet = '%s'",
			HotPhone, HotName, HotAddress), nil
	case 7:
		return fmt.Sprintf("SELECT itemNum, unitPrice FROM PO, Item WHERE PO.orderNum = %d AND deliverTo = '%s' AND deliverToStreet = '%s'",
			HotItem, HotName, HotAddress), nil
	case 8:
		return fmt.Sprintf("SELECT orderNum FROM PO WHERE billTo = '%s' AND shipToAddress = '%s' AND shipToPhone = '%s'",
			HotName, HotAddress, HotPhone), nil
	case 9:
		return fmt.Sprintf("SELECT SUM(price) FROM PO, Item WHERE telephone = '%s' AND billToAddress = '%s' AND itemNum = %d",
			HotPhone, HotAddress, HotItem), nil
	case 10:
		return fmt.Sprintf("SELECT COUNT(*) FROM PO, Item WHERE invoiceTo = '%s' AND billToAddress = '%s'",
			HotName, HotAddress), nil
	default:
		return "", fmt.Errorf("workload query id %d out of range 1..%d", id, NumWorkloadQueries)
	}
}

// WorkloadQuery builds the Table III query with the given id (1–10) against
// its target schema.  Every query of one target shares that schema, built
// once: a query only reads it, while TargetSchema builds a fresh one for
// callers that may change it.
func WorkloadQuery(id int) (*query.Query, error) {
	tgtName, err := QueryTarget(id)
	if err != nil {
		return nil, err
	}
	return ParseWorkloadQuery(id, workloadTargets()[tgtName])
}

// workloadTargets holds the target schemas WorkloadQuery parses against.
var workloadTargets = sync.OnceValue(func() map[TargetName]*schema.Schema {
	out := make(map[TargetName]*schema.Schema)
	for _, name := range AllTargets() {
		out[name] = TargetSchema(name)
	}
	return out
})

// ParseWorkloadQuery parses the Table III query with the given id (1–10)
// against the given target schema, which must have the attributes of the
// query's target.
func ParseWorkloadQuery(id int, target *schema.Schema) (*query.Query, error) {
	text, err := workloadText(id)
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(fmt.Sprintf("Q%d", id), target, text)
	if err != nil {
		return nil, fmt.Errorf("workload Q%d: %w", id, err)
	}
	return q, nil
}

// MustWorkloadQuery is WorkloadQuery that panics on error.
func MustWorkloadQuery(id int) *query.Query {
	q, err := WorkloadQuery(id)
	if err != nil {
		panic(err)
	}
	return q
}

// selectionChain lists the Excel PO attributes (and hot constants) used by the
// Figure 11(d) experiment, which varies the number of selection operators.
var selectionChain = []struct {
	attr  string
	value string
	isInt bool
}{
	{"telephone", HotPhone, false},
	{"priority", fmt.Sprintf("%d", HotPriority), true},
	{"invoiceTo", HotName, false},
	{"company", HotSegment, false},
	{"deliverToStreet", HotAddress, false},
}

// SelectionChainQuery builds the Figure 11(d) query with n selection operators
// (1 ≤ n ≤ 5) over the Excel PO relation.
func SelectionChainQuery(n int) (*query.Query, error) {
	if n < 1 || n > len(selectionChain) {
		return nil, fmt.Errorf("selection chain supports 1..%d operators, got %d", len(selectionChain), n)
	}
	var conds []string
	for i := 0; i < n; i++ {
		c := selectionChain[i]
		if c.isInt {
			conds = append(conds, fmt.Sprintf("%s = %s", c.attr, c.value))
		} else {
			conds = append(conds, fmt.Sprintf("%s = '%s'", c.attr, c.value))
		}
	}
	text := "SELECT orderNum FROM PO WHERE " + strings.Join(conds, " AND ")
	return query.Parse(fmt.Sprintf("sel%d", n), TargetSchema(TargetExcel), text)
}

// SelfJoinQuery builds the Figure 11(e) query with p Cartesian-product
// operators (1 ≤ p ≤ 3): p+1 occurrences of the Excel PO relation chained on
// orderNum, with one selective predicate on the first occurrence.
func SelfJoinQuery(products int) (*query.Query, error) {
	if products < 1 || products > 3 {
		return nil, fmt.Errorf("self-join query supports 1..3 products, got %d", products)
	}
	n := products + 1
	var from []string
	for i := 1; i <= n; i++ {
		from = append(from, fmt.Sprintf("PO PO%d", i))
	}
	conds := []string{fmt.Sprintf("PO1.telephone = '%s'", HotPhone)}
	for i := 1; i < n; i++ {
		conds = append(conds, fmt.Sprintf("PO%d.orderNum = PO%d.orderNum", i, i+1))
	}
	text := "SELECT PO1.orderNum FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(conds, " AND ")
	return query.Parse(fmt.Sprintf("join%d", products), TargetSchema(TargetExcel), text)
}
