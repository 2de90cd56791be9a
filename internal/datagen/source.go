package datagen

import (
	"fmt"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// Magic constants used by the workload predicates.  The generator plants them
// in a correlated fashion ("hot" rows carry several of them at once) so that
// the conjunctive selections of Table III return non-empty answers.
const (
	HotPhone    = "335-1736"
	HotName     = "Mary"
	HotSegment  = "ABC"
	HotPriority = 2
	HotQuantity = 10
	HotItem     = 1
)

// SourceOptions controls the synthetic TPC-H-style instance.
type SourceOptions struct {
	// SizeMB is the nominal scale, named after the paper's database size but
	// not a byte count: it scales the row counts below linearly, 100 giving
	// 1,050 rows and 40 giving 423, where the paper's 100 MB TPC-H instance
	// has about 866,000.  Only the relative scaling matters for the
	// experiments.
	SizeMB float64
	// Seed makes generation deterministic; 0 selects a fixed default.
	Seed uint64
	// HotFraction is the fraction of "hot" rows that carry the workload's
	// magic constants together.  Defaults to 0.08.
	HotFraction float64
}

func (o SourceOptions) withDefaults() SourceOptions {
	if o.SizeMB <= 0 {
		o.SizeMB = 100
	}
	if o.HotFraction <= 0 {
		o.HotFraction = 0.08
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Row counts of the full-size (SizeMB = 100) instance.
const (
	baseOrders   = 150
	baseLineitem = 450
	baseCustomer = 80
	basePart     = 100
	basePartSupp = 200
	baseSupplier = 40
	baseNation   = 25
	baseRegion   = 5
)

// SourceSchema returns the TPC-H-style source schema: 8 relations with 46
// attributes in total, mirroring the relational TPC-H schema the paper matched
// against the COMA++ purchase-order schemas.
func SourceSchema() *schema.Schema {
	s := schema.NewSchema("TPC-H")
	add := func(name string, cols ...schema.Column) {
		s.MustAddRelation(&schema.RelationSchema{Name: name, Columns: cols})
	}
	str := func(n string) schema.Column { return schema.Column{Name: n, Type: schema.TypeString} }
	num := func(n string) schema.Column { return schema.Column{Name: n, Type: schema.TypeInt} }
	flt := func(n string) schema.Column { return schema.Column{Name: n, Type: schema.TypeFloat} }

	add("Region", num("r_regionkey"), str("r_name"))
	add("Nation", num("n_nationkey"), str("n_name"), num("n_regionkey"))
	add("Supplier", num("s_suppkey"), str("s_name"), str("s_address"), str("s_phone"), num("s_nationkey"))
	add("Customer", num("c_custkey"), str("c_name"), str("c_address"), str("c_phone"), str("c_mobile"),
		num("c_nationkey"), str("c_mktsegment"))
	add("Part", num("p_partkey"), str("p_name"), str("p_brand"), str("p_type"), num("p_size"), flt("p_retailprice"))
	add("PartSupp", num("ps_partkey"), num("ps_suppkey"), num("ps_availqty"), flt("ps_supplycost"))
	add("Orders", num("o_orderkey"), num("o_custkey"), str("o_orderstatus"), flt("o_totalprice"),
		str("o_orderdate"), num("o_orderpriority"), num("o_shippriority"), str("o_clerk"),
		str("o_contactname"), str("o_contactphone"), str("o_shipaddress"))
	add("Lineitem", num("l_orderkey"), num("l_partkey"), num("l_suppkey"), num("l_quantity"),
		flt("l_extendedprice"), flt("l_discount"), flt("l_tax"), str("l_shipdate"))
	return s
}

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"CHINA", "FRANCE", "GERMANY", "INDIA", "JAPAN", "KENYA", "PERU", "RUSSIA", "SPAIN", "BRAZIL", "CANADA", "EGYPT", "IRAN", "IRAQ", "JORDAN", "KOREA", "MOROCCO", "ROMANIA", "VIETNAM", "UK", "USA", "ALGERIA", "ARGENTINA", "ETHIOPIA", "MOZAMBIQUE"}
	firstNames   = []string{"Alice", "Bob", "Cindy", "David", "Ella", "Frank", "Grace", "Henry", "Ivy", "Jack", "Karen", "Liam", "Nina", "Oscar", "Paula", "Quinn", "Rita", "Sam", "Tina", "Victor"}
	streetNames  = []string{"Garden", "Harbour", "Jordan", "Kimberley", "Lockhart", "Morrison", "Nathan", "Queens", "Stanley", "Waterloo"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	partAdjs     = []string{"steel", "brass", "copper", "nickel", "tin", "plastic", "rubber", "wooden"}
	partNouns    = []string{"bolt", "bracket", "casing", "gear", "hinge", "lever", "panel", "valve"}
	brandNames   = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#22", "Brand#31", "Brand#32", "Brand#41"}
	typeNames    = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	statusValues = []string{"O", "F", "P"}
	clerkNames   = []string{"Clerk#01", "Clerk#02", "Clerk#03", "Clerk#04", "Mary", "Clerk#06", "Clerk#07"}
)

// GenerateSource builds the synthetic source instance.
func GenerateSource(opts SourceOptions) *engine.Instance {
	opts = opts.withDefaults()
	scale := opts.SizeMB / 100.0
	r := newRNG(opts.Seed)
	db := engine.NewInstance(fmt.Sprintf("tpch-%.0fMB", opts.SizeMB))

	count := func(base int) int {
		n := int(float64(base)*scale + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	nRegion := len(regionNames)
	nNation := count(baseNation)
	if nNation > len(nationNames) {
		nNation = len(nationNames)
	}
	nSupplier := count(baseSupplier)
	nCustomer := count(baseCustomer)
	nPart := count(basePart)
	nPartSupp := count(basePartSupp)
	nOrders := count(baseOrders)
	nLineitem := count(baseLineitem)

	phone := func(hot bool) string {
		if hot {
			return HotPhone
		}
		return fmt.Sprintf("%03d-%04d", r.intn(900)+100, r.intn(9000)+1000)
	}
	person := func(hot bool) string {
		if hot {
			return HotName
		}
		return r.pick(firstNames) + " " + string(rune('A'+r.intn(26))) + "."
	}
	address := func(hot bool) string {
		if hot {
			return HotAddress
		}
		return fmt.Sprintf("%d %s Road", r.intn(200)+1, r.pick(streetNames))
	}
	segment := func(hot bool) string {
		if hot {
			return HotSegment
		}
		return r.pick(segments)
	}

	region := engine.NewRelation("Region", []string{"r_regionkey", "r_name"})
	for i := 0; i < nRegion; i++ {
		region.MustAppend(engine.Tuple{engine.I(int64(i + 1)), engine.S(regionNames[i])})
	}
	db.AddRelation(region)

	nation := engine.NewRelation("Nation", []string{"n_nationkey", "n_name", "n_regionkey"})
	for i := 0; i < nNation; i++ {
		nation.MustAppend(engine.Tuple{engine.I(int64(i + 1)), engine.S(nationNames[i]), engine.I(int64(i%nRegion + 1))})
	}
	db.AddRelation(nation)

	supplier := engine.NewRelation("Supplier", []string{"s_suppkey", "s_name", "s_address", "s_phone", "s_nationkey"})
	for i := 0; i < nSupplier; i++ {
		hot := r.chance(opts.HotFraction)
		supplier.MustAppend(engine.Tuple{
			engine.I(int64(i + 1)),
			engine.S("Supplier " + person(hot)),
			engine.S(address(hot)),
			engine.S(phone(hot)),
			engine.I(int64(r.intn(nNation) + 1)),
		})
	}
	db.AddRelation(supplier)

	customer := engine.NewRelation("Customer", []string{"c_custkey", "c_name", "c_address", "c_phone", "c_mobile", "c_nationkey", "c_mktsegment"})
	for i := 0; i < nCustomer; i++ {
		hot := r.chance(opts.HotFraction)
		customer.MustAppend(engine.Tuple{
			engine.I(int64(i + 1)),
			engine.S(person(hot)),
			engine.S(address(hot)),
			engine.S(phone(hot)),
			engine.S(phone(r.chance(opts.HotFraction / 2))),
			engine.I(int64(r.intn(nNation) + 1)),
			engine.S(segment(hot)),
		})
	}
	db.AddRelation(customer)

	part := engine.NewRelation("Part", []string{"p_partkey", "p_name", "p_brand", "p_type", "p_size", "p_retailprice"})
	for i := 0; i < nPart; i++ {
		part.MustAppend(engine.Tuple{
			engine.I(int64(i + 1)),
			engine.S(r.pick(partAdjs) + " " + r.pick(partNouns)),
			engine.S(r.pick(brandNames)),
			engine.S(r.pick(typeNames)),
			engine.I(int64(r.intn(50) + 1)),
			engine.F(float64(r.intn(90000)+1000) / 100),
		})
	}
	db.AddRelation(part)

	partsupp := engine.NewRelation("PartSupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"})
	for i := 0; i < nPartSupp; i++ {
		qty := int64(r.intn(500) + 1)
		if r.chance(0.05) {
			qty = HotQuantity
		}
		partsupp.MustAppend(engine.Tuple{
			engine.I(int64(i%nPart + 1)),
			engine.I(int64(r.intn(nSupplier) + 1)),
			engine.I(qty),
			engine.F(float64(r.intn(50000)+500) / 100),
		})
	}
	db.AddRelation(partsupp)

	orders := engine.NewRelation("Orders", []string{"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
		"o_orderdate", "o_orderpriority", "o_shippriority", "o_clerk", "o_contactname", "o_contactphone", "o_shipaddress"})
	for i := 0; i < nOrders; i++ {
		hot := r.chance(opts.HotFraction)
		prio := int64(r.intn(5) + 1)
		if hot {
			prio = HotPriority
		}
		orders.MustAppend(engine.Tuple{
			engine.I(int64(i + 1)),
			engine.I(int64(r.intn(nCustomer) + 1)),
			engine.S(r.pick(statusValues)),
			engine.F(float64(r.intn(5000000)+10000) / 100),
			engine.S(fmt.Sprintf("1996-%02d-%02d", r.intn(12)+1, r.intn(28)+1)),
			engine.I(prio),
			engine.I(int64(r.intn(5) + 1)),
			engine.S(r.pick(clerkNames)),
			engine.S(person(hot)),
			engine.S(phone(hot)),
			engine.S(address(hot)),
		})
	}
	db.AddRelation(orders)

	lineitem := engine.NewRelation("Lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate"})
	for i := 0; i < nLineitem; i++ {
		qty := int64(r.intn(50) + 1)
		if r.chance(0.12) {
			qty = HotQuantity
		}
		lineitem.MustAppend(engine.Tuple{
			engine.I(int64(r.intn(nOrders) + 1)),
			engine.I(int64(r.intn(nPart) + 1)),
			engine.I(int64(r.intn(nSupplier) + 1)),
			engine.I(qty),
			engine.F(float64(r.intn(900000)+1000) / 100),
			engine.F(float64(r.intn(10)) / 100),
			engine.F(float64(r.intn(8)) / 100),
			engine.S(fmt.Sprintf("1996-%02d-%02d", r.intn(12)+1, r.intn(28)+1)),
		})
	}
	db.AddRelation(lineitem)

	return db
}
