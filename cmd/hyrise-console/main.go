// Command hyrise-console is the interactive command line interface
// (paper §2.1): it submits queries and offers convenience functions for
// generating TPC-H tables, visualizing query plans, and toggling optional
// components.
//
// Meta commands:
//
//	\help                 show this help
//	\generate tpch <sf>   generate TPC-H tables at a scale factor
//	\tables               list tables
//	\visualize <sql>      print the unoptimized/optimized LQP and the PQP
//	\explain <sql>        execute with tracing and print the annotated plan
//	\metrics              dump the engine metrics registry
//	\timing on|off        print per-stage timings after each query
//	\plugins              list available and loaded plugins
//	\load <plugin>        load a plugin
//	\unload <plugin>      unload a plugin
//	\q                    quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hyrise"
	"hyrise/internal/pipeline"
	"hyrise/internal/plugin"
)

func main() {
	stmtTimeout := flag.Duration("statement-timeout", 0, "cancel statements running longer than this (0 = no timeout)")
	dataDir := flag.String("data-dir", "", "durable data directory: restore snapshot+WAL on boot, log commits (empty = in-memory)")
	syncMode := flag.String("sync", "commit", "WAL sync mode: commit, batch, off")
	flag.Parse()

	cfg := hyrise.DefaultConfig()
	cfg.StatementTimeout = *stmtTimeout
	cfg.DataDir = *dataDir
	cfg.SyncMode = *syncMode
	db, err := hyrise.OpenErr(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer db.Close()
	session := db.Session()
	defer session.Close()

	timing := false
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)

	fmt.Println("Hyrise-Go console. \\help for help, \\q to quit.")
	for {
		fmt.Print("hyrise> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if quit := metaCommand(line, db, session, &timing); quit {
				return
			}
			continue
		}
		results, err := session.Execute(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		for _, res := range results {
			printResult(res, timing)
		}
	}
}

func metaCommand(line string, db *hyrise.Database, session *pipeline.Session, timing *bool) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return true
	case "\\help":
		fmt.Println(`\generate tpch <sf>, \tables, \visualize <sql>, \explain <sql>, \metrics,
\replication, \timing on|off, \plugins, \load <name>, \unload <name>, \q`)
	case "\\tables":
		for _, name := range db.StorageManager().TableNames() {
			t, _ := db.StorageManager().GetTable(name)
			fmt.Printf("  %-12s %10d rows, %d chunks\n", name, t.RowCount(), t.ChunkCount())
		}
	case "\\generate":
		if len(fields) < 3 || fields[1] != "tpch" {
			fmt.Println("usage: \\generate tpch <scale factor>")
			break
		}
		sf, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			fmt.Println("bad scale factor:", fields[2])
			break
		}
		fmt.Printf("generating TPC-H at scale factor %g...\n", sf)
		if err := db.GenerateTPCH(sf, 0); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("done.")
	case "\\visualize":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\visualize"))
		if sql == "" {
			fmt.Println("usage: \\visualize <sql>")
			break
		}
		unopt, opt, pqp, err := db.Plans(sql)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("-- unoptimized LQP:")
		fmt.Print(unopt)
		fmt.Println("-- optimized LQP:")
		fmt.Print(opt)
		fmt.Println("-- PQP:")
		fmt.Print(pqp)
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		if sql == "" {
			fmt.Println("usage: \\explain <sql>")
			break
		}
		ex, err := session.Explain(sql)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(ex.Text)
	case "\\replication":
		res, err := session.ExecuteOne("SELECT * FROM meta_replication")
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		printResult(res, false)
	case "\\metrics":
		for _, m := range db.Metrics().Snapshot() {
			fmt.Printf("  %-32s %-10s %d\n", m.Name, m.Kind, m.Value)
		}
	case "\\timing":
		*timing = len(fields) > 1 && fields[1] == "on"
		fmt.Println("timing:", *timing)
	case "\\plugins":
		fmt.Println("available:", strings.Join(plugin.Available(), ", "))
		fmt.Println("loaded:   ", strings.Join(db.Plugins().Loaded(), ", "))
	case "\\load":
		if len(fields) < 2 {
			fmt.Println("usage: \\load <plugin>")
			break
		}
		if err := db.Plugins().Load(fields[1]); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("loaded", fields[1])
		}
	case "\\unload":
		if len(fields) < 2 {
			fmt.Println("usage: \\unload <plugin>")
			break
		}
		if err := db.Plugins().Unload(fields[1]); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("unloaded", fields[1])
		}
	default:
		fmt.Println("unknown command; \\help for help")
	}
	return false
}

func printResult(res *hyrise.Result, timing bool) {
	if res.Table != nil && len(res.Columns) > 0 {
		rows := hyrise.Rows(res)
		fmt.Println(strings.Join(res.Columns, " | "))
		for i, row := range rows {
			if i >= 50 {
				fmt.Printf("... (%d rows total)\n", len(rows))
				break
			}
			fmt.Println(strings.Join(row, " | "))
		}
		fmt.Printf("(%d rows)\n", len(rows))
	} else {
		fmt.Println(res.Tag)
	}
	if timing {
		t := res.Timing
		fmt.Printf("timing: parse=%v translate=%v optimize=%v pqp=%v execute=%v cache_hit=%v\n",
			t.Parse, t.Translate, t.Optimize, t.ToPQP, t.Execute, t.CacheHit)
	}
}
