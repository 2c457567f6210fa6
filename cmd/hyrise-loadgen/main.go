// Command hyrise-loadgen is a concurrent-client load harness for the wire
// protocol front end: N clients run a mixed read/write workload through the
// extended query protocol (prepared statements, binary parameters) and the
// simple protocol, then the server is drained gracefully. It exits non-zero
// on any protocol error, and, self-hosted, unless the executor pool's read
// and write classes both executed statements and rejected none, making it
// usable as a CI smoke test:
//
//	hyrise-loadgen -clients 8 -duration 3s
//
// With -addr it targets a running server instead of self-hosting one (the
// drain phase is skipped, since the external server owns its lifecycle).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyrise"
	"hyrise/internal/pgclient"
	"hyrise/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "", "target server address (empty = self-host an in-process server)")
		clients    = flag.Int("clients", 8, "concurrent client connections")
		duration   = flag.Duration("duration", 3*time.Second, "load duration")
		writeRatio = flag.Float64("write-ratio", 0.25, "fraction of operations that are INSERTs")
		workers    = flag.Int("workers", 4, "executor pool read slots for the self-hosted server")
		drainWait  = flag.Duration("drain-timeout", 5*time.Second, "graceful drain deadline for the self-hosted server")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
		os.Exit(1)
	}

	target := *addr
	var srv *server.Server
	if target == "" {
		db, s, actual, err := selfHost(*workers)
		if err != nil {
			fail("self-host: %v", err)
		}
		defer db.Close()
		srv, target = s, actual
		fmt.Fprintf(os.Stderr, "self-hosted server on %s (pool: %d read slots)\n", actual, *workers)
	}

	setup, err := pgclient.Dial(target)
	if err != nil {
		fail("dial: %v", err)
	}
	if _, err := setup.SimpleQuery(
		"CREATE TABLE loadgen (id INT NOT NULL, tag VARCHAR(20), val FLOAT)"); err != nil {
		fail("setup: %v", err)
	}

	var (
		ops       atomic.Int64
		reads     atomic.Int64
		writes    atomic.Int64
		protoErrs atomic.Int64
	)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			c, err := pgclient.Dial(target)
			if err != nil {
				protoErrs.Add(1)
				fmt.Fprintf(os.Stderr, "client %d: dial: %v\n", id, err)
				return
			}
			defer c.Close()
			if _, err := c.Prepare("ins", "INSERT INTO loadgen VALUES ($1, $2, $3)", nil); err != nil {
				protoErrs.Add(1)
				fmt.Fprintf(os.Stderr, "client %d: prepare insert: %v\n", id, err)
				return
			}
			if _, err := c.Prepare("sel", "SELECT id, val FROM loadgen WHERE id = $1", nil); err != nil {
				protoErrs.Add(1)
				fmt.Fprintf(os.Stderr, "client %d: prepare select: %v\n", id, err)
				return
			}
			seq := 0
			for time.Now().Before(deadline) {
				var err error
				if rng.Float64() < *writeRatio {
					seq++
					_, err = c.Exec("ins", []pgclient.Param{
						pgclient.BinaryInt8(int64(id*1_000_000 + seq)),
						pgclient.Text(fmt.Sprintf("c%d", id)),
						pgclient.BinaryFloat8(rng.Float64()),
					}, nil)
					writes.Add(1)
				} else if rng.Intn(4) == 0 {
					// A slice of reads goes through the simple protocol, like
					// ad-hoc psql traffic alongside driver traffic.
					_, err = c.SimpleQuery("SELECT tag FROM loadgen WHERE id >= 0")
					reads.Add(1)
				} else {
					_, err = c.Exec("sel", []pgclient.Param{
						pgclient.BinaryInt8(int64(rng.Intn(1_000_000))),
					}, []int16{1, 1})
					reads.Add(1)
				}
				if err != nil {
					protoErrs.Add(1)
					fmt.Fprintf(os.Stderr, "client %d: %v\n", id, err)
					return
				}
				ops.Add(1)
			}
		}(i)
	}
	wg.Wait()

	elapsed := *duration
	fmt.Printf("clients=%d ops=%d (reads=%d writes=%d) qps=%.0f protocol_errors=%d\n",
		*clients, ops.Load(), reads.Load(), writes.Load(),
		float64(ops.Load())/elapsed.Seconds(), protoErrs.Load())

	if srv != nil {
		pool, err := setup.SimpleQuery("SELECT queue, executed, rejected, wait_ns FROM meta_executor_pool")
		if err != nil || len(pool) != 1 {
			fail("meta_executor_pool: %v", err)
		}
		// The read and write classes both ran statements, every statement
		// the clients issued ran in some class, and none was turned away.
		executed := map[string]int64{}
		var total int64
		for _, row := range pool[0].Rows {
			fmt.Printf("pool queue=%s executed=%s rejected=%s wait_ns=%s\n",
				row[0], row[1], row[2], row[3])
			if string(row[2]) != "0" {
				fail("pool: the %s class rejected %s statements", row[0], row[2])
			}
			n, _ := strconv.ParseInt(string(row[1]), 10, 64)
			executed[string(row[0])] = n
			total += n
		}
		if executed["read"] == 0 || executed["write"] == 0 || total < ops.Load() {
			fail("pool: executed %v, want reads and writes, %d in all", executed, ops.Load())
		}
		// Graceful drain: the idle setup connection must get a clean FATAL
		// 57P01, and Shutdown must return within the deadline.
		drained := make(chan struct{})
		go func() {
			srv.Shutdown(*drainWait)
			close(drained)
		}()
		mt, payload, err := setup.ReadMessage()
		if err != nil {
			fail("drain: expected shutdown notice, got %v", err)
		}
		if mt != 'E' {
			fail("drain: expected ErrorResponse, got %q", mt)
		}
		if pe := pgclient.DecodeError(payload); pe.Code != "57P01" {
			fail("drain: notice code = %s, want 57P01", pe.Code)
		}
		select {
		case <-drained:
		case <-time.After(*drainWait + 5*time.Second):
			fail("drain: Shutdown did not return")
		}
		fmt.Println("drain: clean (57P01 delivered, shutdown returned)")
	} else {
		_ = setup.Close()
	}

	if protoErrs.Load() > 0 {
		os.Exit(1)
	}
}

// selfHost opens an in-memory database through the facade, like
// hyrise-server does, and serves it on a free loopback port with a bounded
// executor pool of the given read slots. The caller drains the server and
// closes the database.
func selfHost(workers int) (*hyrise.Database, *server.Server, string, error) {
	db, err := hyrise.OpenErr(hyrise.DefaultConfig())
	if err != nil {
		return nil, nil, "", err
	}
	srv := db.NewServer()
	srv.EnableExecutorPool(workers, server.DefaultSlowQueueThreshold)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, nil, "", err
	}
	go func() { _ = srv.Serve() }()
	return db, srv, addr, nil
}
