// Package tpch implements the TPC-H substrate of the paper's evaluation: a
// deterministic data generator for all eight tables and the 22 queries in
// the paper's dialect (DECIMAL as FLOAT, DATE as CHAR(10) strings with
// precomputed date literals — exactly the schema modifications §5.1
// describes). The generator is not bit-compatible with dbgen but
// reproduces the schema, cardinality ratios, value distributions, and date
// ranges (DESIGN.md substitution S7).
package tpch

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Scale-factor-1 base cardinalities (dbgen's).
const (
	baseSupplier     = 10_000
	baseCustomer     = 150_000
	basePart         = 200_000
	baseOrders       = 1_500_000
	suppliersPerPart = 4
	maxLinesPerOrder = 7
)

var regions = []struct {
	name    string
	comment string
}{
	{"AFRICA", "lar deposits. blithely final packages cajole"},
	{"AMERICA", "hs use ironic, even requests. s"},
	{"ASIA", "ges. thinly even pinto beans ca"},
	{"EUROPE", "ly final courts cajole furiously final excuse"},
	{"MIDDLE EAST", "uickly special accounts cajole carefully"},
}

// nations maps the 25 TPC-H nations to their regions.
var nations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

var typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

var containerSyllable1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
var containerSyllable2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

var colors = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
	"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
	"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
	"hot", "hrown", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
	"lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
	"midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
	"orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
	"puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
	"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
	"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
	"yellow",
}

// commentWords builds filler text; "special", "requests", "Customer",
// "Complaints" support the LIKE patterns of Q13 and Q16.
var commentWords = []string{
	"furiously", "carefully", "blithely", "quickly", "slyly", "ironic",
	"final", "pending", "regular", "express", "bold", "even", "silent",
	"unusual", "packages", "deposits", "accounts", "requests", "instructions",
	"foxes", "pinto", "beans", "theodolites", "dependencies", "platelets",
	"asymptotes", "courts", "ideas", "dolphins", "sheaves", "sauternes",
	"warhorses", "special",
}

// epoch and horizon bound the TPC-H date domain.
var epochDate = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

const orderDateRangeDays = 2406 // 1992-01-01 .. 1998-08-02

// dateStrings holds the ISO dates of the TPC-H date domain, from the epoch
// to the last receipt date (an order date, plus 121 days to ship, plus 30 to
// arrive).
var dateStrings = sync.OnceValue(func() []string {
	out := make([]string, orderDateRangeDays+1)
	for d := range out {
		out[d] = epochDate.AddDate(0, 0, d).Format("2006-01-02")
	}
	return out
})

func dateString(daysSinceEpoch int) string { return dateStrings()[daysSinceEpoch] }

// Sizes reports the row counts for a scale factor.
type Sizes struct {
	Supplier, Customer, Part, PartSupp, Orders int
}

// SizesFor computes table cardinalities.
func SizesFor(sf float64) Sizes {
	atLeast := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	return Sizes{
		Supplier: atLeast(int(baseSupplier * sf)),
		Customer: atLeast(int(baseCustomer * sf)),
		Part:     atLeast(int(basePart * sf)),
		PartSupp: atLeast(int(basePart*sf)) * suppliersPerPart,
		Orders:   atLeast(int(baseOrders * sf)),
	}
}

// Config controls generation.
type Config struct {
	ScaleFactor float64
	ChunkSize   int
	UseMvcc     bool
	Seed        int64
	// ClusterDates generates orders in (roughly) o_orderdate order, the way
	// an append-only operational system would receive them. dbgen assigns
	// dates uniformly at random, which leaves min-max filters nothing to
	// prune on date predicates; clustered data is the regime where the
	// paper's chunk pruning shines (§2.4/§5.2: "whether pruning is possible
	// depends on the underlying data").
	ClusterDates bool
	// Skew replaces the uniform foreign-key distributions with Zipf-like
	// ones: a few customers place most orders and a few parts dominate the
	// lineitems. This reproduces the essence of the JCC-H data generator
	// the paper lists as work in progress (§2.10): skew that stresses
	// join and aggregation behaviour.
	Skew bool
}

// Generate creates, registers and populates the eight TPC-H tables. It loads
// like tpcc.Generate and LoadCSV: each table is registered first and filled
// by a storage.Loader, which publishes every chunk sealed, the last one when
// the table is done. A catalog without a Sealer (storage.NewStorageManager)
// gets them immutable and unencoded.
func Generate(sm *storage.StorageManager, cfg Config) error {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 0.01
	}
	sizes := SizesFor(cfg.ScaleFactor)
	g := &generator{cfg: cfg, sizes: sizes, sm: sm}

	steps := []func(){
		g.generateRegion,
		g.generateNation,
		g.generateSupplier,
		g.generateCustomer,
		g.generatePart,
		g.generatePartSupp,
		g.generateOrdersAndLineitem,
	}
	defer g.loads.Wait()
	for _, step := range steps {
		step()
		if g.err != nil {
			return g.err
		}
	}
	return nil
}

type generator struct {
	cfg   Config
	sizes Sizes
	sm    *storage.StorageManager
	err   error          // the first error ends the load
	loads sync.WaitGroup // tables whose last chunks are still being published
}

// skewed draws from [1, n] with a Zipf-ish distribution when cfg.Skew is
// set (exponent ~1.2, hot keys first), uniformly otherwise.
func (g *generator) skewed(rng *rand.Rand, n int) int {
	if !g.cfg.Skew || n < 2 {
		return 1 + rng.Intn(n)
	}
	// Inverse-CDF sampling of a bounded power law.
	u := rng.Float64()
	const s = 1.2
	x := math.Pow(u*(math.Pow(float64(n), 1-s)-1)+1, 1/(1-s))
	k := int(x)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

func (g *generator) rng(table string) *rand.Rand {
	seed := g.cfg.Seed
	for _, c := range table {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed + 777))
}

// newTable registers a table before its first row, so the catalog's Sealer
// seals each of its chunks, and returns the loader that fills it with about
// rows rows.
func (g *generator) newTable(name string, rows int, defs []storage.ColumnDefinition) *storage.Loader {
	t := storage.NewTable(name, defs, g.cfg.ChunkSize, g.cfg.UseMvcc)
	if g.err == nil {
		g.err = g.sm.AddTable(t)
	}
	return storage.NewLoader(t, rows)
}

// finish ends a table's load beside the next table's: the last chunk is
// sealed and published, then every row is committed. Generate returns once
// every table's load has ended.
func (g *generator) finish(l *storage.Loader) {
	g.loads.Add(1)
	go func() {
		defer g.loads.Done()
		l.Close()
		if g.cfg.UseMvcc {
			concurrency.MarkTableLoaded(l.Table())
		}
	}()
}

// comment draws minWords to maxWords (at most 30) filler words.
func comment(rng *rand.Rand, minWords, maxWords int) string {
	var buf [30]string
	words := buf[:minWords+rng.Intn(maxWords-minWords+1)]
	for i := range words {
		words[i] = commentWords[rng.Intn(len(commentWords))]
	}
	return strings.Join(words, " ")
}

func phone(rng *rand.Rand, nationKey int) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", nationKey+10,
		100+rng.Intn(900), 100+rng.Intn(900), 1000+rng.Intn(9000))
}

func acctbal(rng *rand.Rand) float64 {
	return float64(-99999+rng.Intn(999999+99999+1)) / 100
}

// retailPrice is dbgen's deterministic price formula; lineitem recomputes
// it from the part key without a lookup.
func retailPrice(partKey int) float64 {
	return float64(90000+((partKey/10)%20001)+100*(partKey%1000)) / 100
}

// partSuppSupplier is dbgen's supplier spread formula.
func partSuppSupplier(partKey, i, supplierCount int) int {
	return (partKey+i*(supplierCount/4+(partKey-1)/supplierCount))%supplierCount + 1
}

func (g *generator) generateRegion() {
	l := g.newTable("region", len(regions), []storage.ColumnDefinition{
		{Name: "r_regionkey", Type: types.TypeInt64},
		{Name: "r_name", Type: types.TypeString},
		{Name: "r_comment", Type: types.TypeString},
	})
	for i, r := range regions {
		l.Int(int64(i))
		l.Str(r.name)
		l.Str(r.comment)
		l.EndRow()
	}
	g.finish(l)
}

func (g *generator) generateNation() {
	rng := g.rng("nation")
	l := g.newTable("nation", len(nations), []storage.ColumnDefinition{
		{Name: "n_nationkey", Type: types.TypeInt64},
		{Name: "n_name", Type: types.TypeString},
		{Name: "n_regionkey", Type: types.TypeInt64},
		{Name: "n_comment", Type: types.TypeString},
	})
	for i, n := range nations {
		l.Int(int64(i))
		l.Str(n.name)
		l.Int(int64(n.region))
		l.Str(comment(rng, 6, 15))
		l.EndRow()
	}
	g.finish(l)
}

func (g *generator) generateSupplier() {
	rng := g.rng("supplier")
	l := g.newTable("supplier", g.sizes.Supplier, []storage.ColumnDefinition{
		{Name: "s_suppkey", Type: types.TypeInt64},
		{Name: "s_name", Type: types.TypeString},
		{Name: "s_address", Type: types.TypeString},
		{Name: "s_nationkey", Type: types.TypeInt64},
		{Name: "s_phone", Type: types.TypeString},
		{Name: "s_acctbal", Type: types.TypeFloat64},
		{Name: "s_comment", Type: types.TypeString},
	})
	for k := 1; k <= g.sizes.Supplier; k++ {
		nation := rng.Intn(len(nations))
		c := comment(rng, 6, 15)
		// dbgen plants "Customer Complaints" in 5 per 10000 suppliers (Q16)
		// and "Customer Recommends" in another 5.
		switch rng.Intn(2000) {
		case 0:
			c = c + " Customer Complaints " + comment(rng, 2, 4)
		case 1:
			c = c + " Customer Recommends " + comment(rng, 2, 4)
		}
		l.Int(int64(k))
		l.Str(fmt.Sprintf("Supplier#%09d", k))
		l.Str(comment(rng, 2, 4))
		l.Int(int64(nation))
		l.Str(phone(rng, nation))
		l.Float(acctbal(rng))
		l.Str(c)
		l.EndRow()
	}
	g.finish(l)
}

func (g *generator) generateCustomer() {
	rng := g.rng("customer")
	l := g.newTable("customer", g.sizes.Customer, []storage.ColumnDefinition{
		{Name: "c_custkey", Type: types.TypeInt64},
		{Name: "c_name", Type: types.TypeString},
		{Name: "c_address", Type: types.TypeString},
		{Name: "c_nationkey", Type: types.TypeInt64},
		{Name: "c_phone", Type: types.TypeString},
		{Name: "c_acctbal", Type: types.TypeFloat64},
		{Name: "c_mktsegment", Type: types.TypeString},
		{Name: "c_comment", Type: types.TypeString},
	})
	for k := 1; k <= g.sizes.Customer; k++ {
		nation := rng.Intn(len(nations))
		l.Int(int64(k))
		l.Str(fmt.Sprintf("Customer#%09d", k))
		l.Str(comment(rng, 2, 4))
		l.Int(int64(nation))
		l.Str(phone(rng, nation))
		l.Float(acctbal(rng))
		l.Str(mktSegments[rng.Intn(len(mktSegments))])
		l.Str(comment(rng, 10, 20))
		l.EndRow()
	}
	g.finish(l)
}

func (g *generator) generatePart() {
	rng := g.rng("part")
	l := g.newTable("part", g.sizes.Part, []storage.ColumnDefinition{
		{Name: "p_partkey", Type: types.TypeInt64},
		{Name: "p_name", Type: types.TypeString},
		{Name: "p_mfgr", Type: types.TypeString},
		{Name: "p_brand", Type: types.TypeString},
		{Name: "p_type", Type: types.TypeString},
		{Name: "p_size", Type: types.TypeInt64},
		{Name: "p_container", Type: types.TypeString},
		{Name: "p_retailprice", Type: types.TypeFloat64},
		{Name: "p_comment", Type: types.TypeString},
	})
	for k := 1; k <= g.sizes.Part; k++ {
		m := 1 + rng.Intn(5)
		name := colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " +
			colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " +
			colors[rng.Intn(len(colors))]
		ptype := typeSyllable1[rng.Intn(len(typeSyllable1))] + " " +
			typeSyllable2[rng.Intn(len(typeSyllable2))] + " " +
			typeSyllable3[rng.Intn(len(typeSyllable3))]
		container := containerSyllable1[rng.Intn(len(containerSyllable1))] + " " +
			containerSyllable2[rng.Intn(len(containerSyllable2))]
		l.Int(int64(k))
		l.Str(name)
		l.Str(fmt.Sprintf("Manufacturer#%d", m))
		l.Str(fmt.Sprintf("Brand#%d%d", m, 1+rng.Intn(5)))
		l.Str(ptype)
		l.Int(int64(1 + rng.Intn(50)))
		l.Str(container)
		l.Float(retailPrice(k))
		l.Str(comment(rng, 3, 8))
		l.EndRow()
	}
	g.finish(l)
}

func (g *generator) generatePartSupp() {
	rng := g.rng("partsupp")
	l := g.newTable("partsupp", g.sizes.PartSupp, []storage.ColumnDefinition{
		{Name: "ps_partkey", Type: types.TypeInt64},
		{Name: "ps_suppkey", Type: types.TypeInt64},
		{Name: "ps_availqty", Type: types.TypeInt64},
		{Name: "ps_supplycost", Type: types.TypeFloat64},
		{Name: "ps_comment", Type: types.TypeString},
	})
	for pk := 1; pk <= g.sizes.Part; pk++ {
		for i := 0; i < suppliersPerPart; i++ {
			sk := partSuppSupplier(pk, i, g.sizes.Supplier)
			l.Int(int64(pk))
			l.Int(int64(sk))
			l.Int(int64(1 + rng.Intn(9999)))
			l.Float(float64(100+rng.Intn(99901)) / 100)
			l.Str(comment(rng, 10, 30))
			l.EndRow()
		}
	}
	g.finish(l)
}

func (g *generator) generateOrdersAndLineitem() {
	rng := g.rng("orders")
	orders := g.newTable("orders", g.sizes.Orders, []storage.ColumnDefinition{
		{Name: "o_orderkey", Type: types.TypeInt64},
		{Name: "o_custkey", Type: types.TypeInt64},
		{Name: "o_orderstatus", Type: types.TypeString},
		{Name: "o_totalprice", Type: types.TypeFloat64},
		{Name: "o_orderdate", Type: types.TypeString},
		{Name: "o_orderpriority", Type: types.TypeString},
		{Name: "o_clerk", Type: types.TypeString},
		{Name: "o_shippriority", Type: types.TypeInt64},
		{Name: "o_comment", Type: types.TypeString},
	})
	lineitem := g.newTable("lineitem", g.sizes.Orders*(1+maxLinesPerOrder)/2, []storage.ColumnDefinition{
		{Name: "l_orderkey", Type: types.TypeInt64},
		{Name: "l_partkey", Type: types.TypeInt64},
		{Name: "l_suppkey", Type: types.TypeInt64},
		{Name: "l_linenumber", Type: types.TypeInt64},
		{Name: "l_quantity", Type: types.TypeFloat64},
		{Name: "l_extendedprice", Type: types.TypeFloat64},
		{Name: "l_discount", Type: types.TypeFloat64},
		{Name: "l_tax", Type: types.TypeFloat64},
		{Name: "l_returnflag", Type: types.TypeString},
		{Name: "l_linestatus", Type: types.TypeString},
		{Name: "l_shipdate", Type: types.TypeString},
		{Name: "l_commitdate", Type: types.TypeString},
		{Name: "l_receiptdate", Type: types.TypeString},
		{Name: "l_shipinstruct", Type: types.TypeString},
		{Name: "l_shipmode", Type: types.TypeString},
		{Name: "l_comment", Type: types.TypeString},
	})

	clerks := max(g.sizes.Orders/1500, 1)
	currentDateDays := daysBetween("1995-06-17") // dbgen's CURRENTDATE

	for ok := 1; ok <= g.sizes.Orders; ok++ {
		// dbgen: customer keys divisible by 3 never place orders, so a
		// third of customers has none (exercised by Q13/Q22).
		custkey := g.skewed(rng, g.sizes.Customer)
		for custkey%3 == 0 {
			custkey = g.skewed(rng, g.sizes.Customer)
		}
		var orderDays int
		if g.cfg.ClusterDates {
			// Monotone-with-jitter: consecutive orders land on nearby dates.
			base := float64(ok-1) / float64(g.sizes.Orders) * float64(orderDateRangeDays-151)
			orderDays = int(base) + rng.Intn(7)
			if orderDays > orderDateRangeDays-151 {
				orderDays = orderDateRangeDays - 151
			}
		} else {
			orderDays = rng.Intn(orderDateRangeDays - 151)
		}
		orderDate := dateString(orderDays)

		nLines := 1 + rng.Intn(maxLinesPerOrder)
		totalPrice := 0.0
		allF, allO := true, true
		for line := 1; line <= nLines; line++ {
			partKey := g.skewed(rng, g.sizes.Part)
			suppKey := partSuppSupplier(partKey, rng.Intn(suppliersPerPart), g.sizes.Supplier)
			qty := float64(1 + rng.Intn(50))
			price := retailPrice(partKey) * qty / 10
			discount := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			shipDays := orderDays + 1 + rng.Intn(121)
			commitDays := orderDays + 30 + rng.Intn(61)
			receiptDays := shipDays + 1 + rng.Intn(30)

			returnFlag := "N"
			if receiptDays <= currentDateDays {
				if rng.Intn(2) == 0 {
					returnFlag = "R"
				} else {
					returnFlag = "A"
				}
			}
			lineStatus := "O"
			if shipDays <= currentDateDays {
				lineStatus = "F"
			}
			if lineStatus == "F" {
				allO = false
			} else {
				allF = false
			}
			totalPrice += price * (1 + tax) * (1 - discount)

			lineitem.Int(int64(ok))
			lineitem.Int(int64(partKey))
			lineitem.Int(int64(suppKey))
			lineitem.Int(int64(line))
			lineitem.Float(qty)
			lineitem.Float(price)
			lineitem.Float(discount)
			lineitem.Float(tax)
			lineitem.Str(returnFlag)
			lineitem.Str(lineStatus)
			lineitem.Str(dateString(shipDays))
			lineitem.Str(dateString(commitDays))
			lineitem.Str(dateString(receiptDays))
			lineitem.Str(shipInstructs[rng.Intn(len(shipInstructs))])
			lineitem.Str(shipModes[rng.Intn(len(shipModes))])
			lineitem.Str(comment(rng, 4, 10))
			lineitem.EndRow()
		}

		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		oComment := comment(rng, 5, 12)
		if rng.Intn(100) == 0 {
			oComment += " special packages wake requests "
		}
		orders.Int(int64(ok))
		orders.Int(int64(custkey))
		orders.Str(status)
		orders.Float(totalPrice)
		orders.Str(orderDate)
		orders.Str(orderPriorities[rng.Intn(len(orderPriorities))])
		orders.Str(fmt.Sprintf("Clerk#%09d", 1+rng.Intn(clerks)))
		orders.Int(0)
		orders.Str(oComment)
		orders.EndRow()
	}
	g.finish(orders)
	g.finish(lineitem)
}

// daysBetween parses an ISO date into days since the TPC-H epoch.
func daysBetween(iso string) int {
	t, err := time.Parse("2006-01-02", iso)
	if err != nil {
		panic(err)
	}
	return int(t.Sub(epochDate).Hours() / 24)
}

// TableNames lists the eight TPC-H tables in load order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}
