// Command mvgcd serves a sharded multiversion map over the netproto wire
// protocol (a RESP subset): the repo's network front door.
//
// Pipelined clients (internal/netclient, or anything that speaks RESP
// arrays of bulk strings) get SET/GET/DEL/SUM/LEN/SCAN/SCANC/MCAS/PING/
// STATS; a connection commits each burst of pipelined SETs and DELs on its
// own read loop as O(shards) commits, and connections share the log's
// fsyncs (see internal/netserver).
//
// Usage:
//
//	mvgcd -addr :6380 -shards 8 -maxconns 256
//	mvgcd -addr :6380 -wal /var/lib/mvgcd -wal-fsync always
//	mvgcd -addr :6381 -wal /var/lib/mvgcd-f -follow leader:6380
//
// With -wal every acknowledged write is appended to a segmented redo log
// and fsynced per -wal-fsync before its +OK goes out; on restart mvgcd
// recovers the newest checkpoint snapshot plus all logged records before
// serving, so a kill -9 loses nothing that was acked.  -checkpoint-bytes
// folds the log into a snapshot each time that many bytes have been
// appended since the last one, which keeps the retained log under twice
// that size; the segment size then defaults to a quarter of it.
//
// With -follow the server starts as a read-only replica: it streams the
// leader's WAL (REPL wire command), replays it through the same
// GSN-ordered apply path recovery uses, and answers reads.  PROMOTE on
// the wire — or SIGUSR1 — detaches it from the leader and enables
// writes, with the GSN floored so stamps never rewind past replayed
// history.
//
// SIGINT/SIGTERM shut down gracefully: accepted requests are committed,
// answered and — with -wal — flushed to durable storage before the
// process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"mvgc"
	"mvgc/internal/netserver"
)

func main() {
	var (
		addr       = flag.String("addr", ":6380", "listen address")
		shards     = flag.Int("shards", min(runtime.GOMAXPROCS(0), 8), "shard count (default: GOMAXPROCS capped at 8)")
		maxConns   = flag.Int("maxconns", 256, "connections served concurrently")
		pipeline   = flag.Int("pipeline", 1024, "max outstanding responses per connection")
		consistent = flag.Bool("consistent", false, "serve SUM/LEN/SCAN from globally consistent snapshots")
		walDir     = flag.String("wal", "", "write-ahead log directory (empty = purely in-memory)")
		walFsync   = flag.String("wal-fsync", "always", "WAL fsync policy: always, interval or off")
		walSegment = flag.Int64("wal-segment-bytes", 0, "WAL segment size before rotation (0 = a quarter of -checkpoint-bytes, at least 4KiB, or 64MiB without it)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "checkpoint each time the log has grown this many bytes since the last checkpoint (0 = off)")
		follow     = flag.String("follow", "", "follow a leader at this address (read-only until PROMOTE/SIGUSR1; requires -wal)")
	)
	flag.Parse()

	srv, err := netserver.New(netserver.Config{
		Shards:      *shards,
		MaxConns:    *maxConns,
		MaxPipeline: *pipeline,
		Consistent:  *consistent,
		WAL: mvgc.WALOptions{
			Dir:             *walDir,
			Fsync:           *walFsync,
			SegmentBytes:    *walSegment,
			CheckpointBytes: *ckptBytes,
		},
		Follow: *follow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvgcd:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvgcd:", err)
		os.Exit(1)
	}
	durability := "in-memory"
	if *walDir != "" {
		durability = fmt.Sprintf("wal=%s fsync=%s", *walDir, *walFsync)
	}
	role := ""
	if *follow != "" {
		role = fmt.Sprintf(" following=%s", *follow)
	}
	fmt.Printf("mvgcd: serving on %s (shards=%d maxconns=%d %s%s)\n",
		ln.Addr(), *shards, *maxConns, durability, role)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("mvgcd: shutting down")
		srv.Shutdown()
	}()

	promote := make(chan os.Signal, 1)
	signal.Notify(promote, syscall.SIGUSR1)
	go func() {
		for range promote {
			fmt.Println("mvgcd: promoting to leader")
			srv.Promote()
		}
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "mvgcd:", err)
		os.Exit(1)
	}
}
