//! TCP serving end to end: start a `rcy-server` front-end over one
//! recycling `Database`, then hit it with a few concurrent clients — the
//! paper's §8 serving shape (many remote sessions, one shared recycler)
//! over an actual socket, first with blocking call-and-wait round trips
//! and then with the v2 wire pipeline (many requests in flight on one
//! connection, responses matched by request id).
//!
//! ```text
//! cargo run --release --example serve_tcp [clients] [queries-per-client]
//! ```

use rcy_server::{Client, Server, ServerConfig};
use recycling::DatabaseBuilder;

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let per_client: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);

    let objects = 20_000;
    println!("generating synthetic sky catalogue ({objects} objects) ...");
    let catalog = skyserver::generate(skyserver::SkyScale::new(objects));
    let (templates, log) = skyserver::sample_log(clients * per_client, 2008);

    // one Database with the default recycler, templates registered by name
    let mut builder = DatabaseBuilder::new(catalog);
    for (i, t) in templates.iter().enumerate() {
        builder = builder.template(&format!("q{i}"), t.clone());
    }
    let db = builder.build();

    let server = Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: clients,
            backlog: clients * 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    println!("serving on {addr} ({clients} workers behind the reactor)\n");

    // --- phase 1: blocking call-and-wait, one round trip per query ---
    let started = std::time::Instant::now();
    let totals: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stream: Vec<_> = log
                    .iter()
                    .skip(c)
                    .step_by(clients)
                    .take(per_client)
                    .collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (mut hits, mut monitored) = (0u64, 0u64);
                    for item in stream {
                        let reply = client
                            .query(&format!("q{}", item.query_idx), &item.params)
                            .expect("query over the wire");
                        hits += reply.reused;
                        monitored += reply.marked;
                    }
                    client.close().expect("close");
                    (hits, monitored)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let blocking_elapsed = started.elapsed();

    let hits: u64 = totals.iter().map(|t| t.0).sum();
    let monitored: u64 = totals.iter().map(|t| t.1).sum();
    println!(
        "blocking:  {} wire queries from {clients} clients in {blocking_elapsed:?} — {:.1}% \
         of monitored instructions answered from the shared pool",
        clients * per_client,
        100.0 * hits as f64 / monitored.max(1) as f64,
    );

    // --- phase 2: the same log, pipelined on ONE connection ---
    // send_query queues frames without waiting; the server may answer
    // out of order (Stats overtakes queued queries, for instance) and
    // recv_query matches responses to requests by id. query_many wraps
    // the same split for the common burst shape.
    let started = std::time::Instant::now();
    let mut pipelined = Client::connect(addr).expect("connect");
    let mut in_flight = Vec::with_capacity(log.len());
    for item in &log {
        let id = pipelined
            .send_query(&format!("q{}", item.query_idx), &item.params)
            .expect("send");
        in_flight.push(id);
    }
    let (mut phits, mut pmon) = (0u64, 0u64);
    for id in in_flight {
        let reply = pipelined.recv_query(id).expect("recv");
        phits += reply.reused;
        pmon += reply.marked;
    }
    pipelined.close().expect("close");
    let pipelined_elapsed = started.elapsed();
    println!(
        "pipelined: {} wire queries on one connection in {pipelined_elapsed:?} — {:.1}% \
         recycled ({:.1}x the blocking round trips, amortising every RTT)",
        log.len(),
        100.0 * phits as f64 / pmon.max(1) as f64,
        blocking_elapsed.as_secs_f64() / pipelined_elapsed.as_secs_f64().max(1e-9),
    );

    let mut c = Client::connect(addr).expect("connect");
    println!("\nserver stats:");
    for (name, v) in c.stats().expect("stats") {
        println!("  {name:<28} {v}");
    }
    c.close().ok();
    server.shutdown();

    assert!(hits > 0, "the wire path must recycle");
    assert!(phits > 0, "the pipelined path must recycle");
}
