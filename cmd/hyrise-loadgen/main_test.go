package main

import (
	"testing"
	"time"

	"hyrise/internal/pgclient"
)

// TestSelfHostedServerIsADatabase: the self-hosted server is opened through
// the facade, so it answers what every other binary's server answers —
// meta_replication's one standalone row included.
func TestSelfHostedServerIsADatabase(t *testing.T) {
	db, srv, addr, err := selfHost(2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer srv.Shutdown(time.Second)
	c, err := pgclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SimpleQuery("SELECT * FROM meta_replication")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 1 || string(res[0].Rows[0][0]) != "standalone" {
		t.Fatalf("meta_replication = %+v, want one standalone row", res)
	}
}
