// Self-driving: the paper's prime plugin use case (§3.2). The table seals by
// the size model when its load ends; the encoding advisor and index selection
// plugins, loaded through the plugin manager, report its encodings and build
// per-chunk indexes — without the database core knowing about them.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"hyrise"
	"hyrise/internal/plugin"
)

func main() {
	db := hyrise.Open(hyrise.DefaultConfig())
	defer db.Close()

	// A table with very different column shapes, unencoded at first.
	if _, err := db.Execute(`CREATE TABLE telemetry (
		event_id INT NOT NULL,
		device INT NOT NULL,
		status VARCHAR(10) NOT NULL,
		firmware INT NOT NULL,
		reading FLOAT NOT NULL)`); err != nil {
		log.Fatal(err)
	}
	statuses := []string{"ok", "ok", "ok", "warn", "error"}
	var sb strings.Builder
	const rows = 50_000
	const batch = 5_000
	for start := 0; start < rows; start += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO telemetry VALUES ")
		for i := start; i < start+batch; i++ {
			if i > start {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "(%d, %d, '%s', 7, %d.%02d)",
				i, i%500, statuses[i%len(statuses)], i%100, i%97)
		}
		if _, err := db.Execute(sb.String()); err != nil {
			log.Fatal(err)
		}
	}
	table, err := db.StorageManager().GetTable("telemetry")
	if err != nil {
		log.Fatal(err)
	}
	dataBefore, _ := table.MemoryUsage()
	probe := "SELECT count(*), avg(reading) FROM telemetry WHERE status = 'error' AND device = 42"
	before := timeQuery(db, probe)
	table.SealTail() // the load ends: the 50 000-row tail seals by the size model

	fmt.Println("available plugins:", strings.Join(plugin.Available(), ", "))
	for _, name := range []string{"encoding_advisor", "index_selection"} {
		if err := db.Plugins().Load(name); err != nil {
			log.Fatal(err)
		}
		fmt.Println("loaded plugin:", name)
	}

	// What did the advisors decide?
	if p, ok := db.Plugins().Get("encoding_advisor"); ok {
		advisor := p.(*plugin.EncodingAdvisorPlugin)
		fmt.Println("\nencoding choices:")
		for col, enc := range advisor.Applied() {
			fmt.Printf("  %-22s -> %s\n", col, enc)
		}
	}
	if p, ok := db.Plugins().Get("index_selection"); ok {
		selector := p.(*plugin.IndexSelectionPlugin)
		fmt.Println("\nindexes created:")
		for _, idx := range selector.Created() {
			fmt.Printf("  %s\n", idx)
		}
	}

	dataAfter, meta := table.MemoryUsage()
	after := timeQuery(db, probe)

	fmt.Printf("\ndata footprint: %.2f MiB -> %.2f MiB (metadata incl. indexes: %.2f MiB)\n",
		float64(dataBefore)/(1<<20), float64(dataAfter)/(1<<20), float64(meta)/(1<<20))
	fmt.Printf("probe query:    %v -> %v\n", before.Round(time.Microsecond), after.Round(time.Microsecond))

	// The plugins can be unloaded at runtime; the data they produced stays.
	for _, name := range db.Plugins().Loaded() {
		if err := db.Plugins().Unload(name); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("plugins unloaded; database keeps running:")
	res, err := db.Query("SELECT status, count(*) FROM telemetry GROUP BY status ORDER BY status")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range hyrise.Rows(res) {
		fmt.Println("  ", strings.Join(row, " | "))
	}
}

func timeQuery(db *hyrise.Database, sql string) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := db.Query(sql); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
