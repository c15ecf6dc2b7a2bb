//! Wire-protocol coverage for the TCP front-end: frame round-trip
//! property test, malformed/truncated-frame rejection against a live
//! server, connection-level admission control, pipelined-vs-sequential
//! identity, idle-vs-slow-loris timeout semantics, and a
//! concurrent-connections stress whose results and stats identities must
//! match in-process sessions.

use std::io::{Read, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use rbat::{Catalog, Date, LogicalType, Oid, TableBuilder, Value};
use rcy_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    QueryResult, Request, Response, PROTOCOL_VERSION,
};
use rcy_server::{Client, ClientError, Server, ServerConfig};
use recycling::{AdmissionPolicy, Database, DatabaseBuilder, RecyclerConfig};
use rmal::{Program, ProgramBuilder, P};

// ----- test fixtures --------------------------------------------------------

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t")
        .column("x", LogicalType::Int)
        .column("y", LogicalType::Int);
    for i in 0..2000i64 {
        tb.push_row(&[Value::Int((i * 37) % 2000), Value::Int(i % 97)]);
    }
    cat.add_table(tb.finish());
    cat
}

fn count_template() -> Program {
    let mut b = ProgramBuilder::new("count_range", 2);
    let col = b.bind("t", "x");
    let sel = b.select_closed(col, P(0), P(1));
    let n = b.count(sel);
    b.export("n", n);
    b.finish()
}

fn serving_db() -> Database {
    DatabaseBuilder::new(catalog())
        .template("count_range", count_template())
        .build()
}

// ----- frame round-trip property test ---------------------------------------

/// Map a generated `(kind, payload)` pair onto one wire-encodable value.
fn arb_value(kind: u8, n: i64) -> Value {
    match kind % 7 {
        0 => Value::Nil,
        1 => Value::Bool(n % 2 == 0),
        2 => Value::Int(n),
        3 => Value::Float(n as f64 / 3.0),
        4 => Value::Date(Date(n as i32)),
        5 => Value::str(&format!("s{n}\u{00e9}")), // non-ASCII on purpose
        _ => Value::Oid(Oid(n.unsigned_abs())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any request survives encode → frame → unframe → decode exactly,
    /// including through a byte stream carrying several frames
    /// back-to-back, with its v2 request id intact.
    #[test]
    fn frames_roundtrip(
        name_tag in 0u64..1000,
        id in 1u64..u64::MAX,
        params in prop::collection::vec((0u8..7, -100_000i64..100_000), 0..12),
        rows in prop::collection::vec(
            prop::collection::vec((0u8..7, -1000i64..1000), 1..4), 0..4),
        deletes in prop::collection::vec(0u64..10_000, 0..6),
    ) {
        let reqs = vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Query {
                id,
                template: format!("q{name_tag}"),
                params: params.iter().map(|&(k, n)| arb_value(k, n)).collect(),
                deadline_ms: name_tag,
            },
            Request::Commit {
                id: id ^ 1,
                table: format!("t{name_tag}"),
                inserts: rows
                    .iter()
                    .map(|r| r.iter().map(|&(k, n)| arb_value(k, n)).collect())
                    .collect(),
                deletes: deletes.clone(),
            },
            Request::Stats { id },
            Request::Close,
        ];
        // several frames through one buffer, like a real connection
        let mut stream: Vec<u8> = Vec::new();
        for req in &reqs {
            let payload = encode_request(req).map_err(|e| {
                TestCaseError::fail(format!("encode: {e}"))
            })?;
            write_frame(&mut stream, &payload).map_err(|e| {
                TestCaseError::fail(format!("frame: {e}"))
            })?;
        }
        let mut cursor: &[u8] = &stream;
        for req in &reqs {
            let payload = read_frame(&mut cursor)
                .map_err(|e| TestCaseError::fail(format!("unframe: {e}")))?
                .expect("frame present");
            let decoded = decode_request(&payload)
                .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
            prop_assert_eq!(&decoded, req);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());

        // responses too, id echoed
        let resp = Response::Query {
            id,
            result: QueryResult {
                exports: params
                    .iter()
                    .enumerate()
                    .map(|(i, &(k, n))| (format!("e{i}"), arb_value(k, n)))
                    .collect(),
                marked: name_tag,
                reused: name_tag / 2,
                subsumed: 1,
                admitted: 2,
                elapsed_us: 3,
            },
        };
        let bytes = encode_response(&resp).map_err(|e| {
            TestCaseError::fail(format!("encode resp: {e}"))
        })?;
        let decoded = decode_response(&bytes).unwrap();
        prop_assert_eq!(decoded.id(), Some(id));
        prop_assert_eq!(decoded, resp);
    }

    /// Decoding never panics and never succeeds on a *prefix* of a valid
    /// payload (truncation is always surfaced as an error).
    #[test]
    fn truncated_payloads_always_rejected(
        params in prop::collection::vec((0u8..7, -1000i64..1000), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let payload = encode_request(&Request::Query {
            id: 1,
            template: "q".into(),
            params: params.iter().map(|&(k, n)| arb_value(k, n)).collect(),
            deadline_ms: 0,
        }).unwrap();
        let cut = 1 + ((payload.len() - 2) as f64 * cut_frac) as usize;
        prop_assert!(decode_request(&payload[..cut]).is_err());
    }
}

// ----- malformed frames against a live server -------------------------------

#[test]
fn oversized_length_prefix_is_rejected_with_an_error_frame() {
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // a hostile 4 GiB length prefix (no body bytes: the server closes the
    // socket after replying, and unread input would turn that close into
    // a RST that could discard the in-flight error frame)
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("error frame");
    match decode_response(&resp).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 0, "framing errors are connection-fatal (id 0)");
            assert!(message.contains("exceeds limit"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // and the server hung up: the next read is EOF
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "connection must be closed");
    server.shutdown();
}

#[test]
fn truncated_frame_is_rejected() {
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // announce 100 bytes, send 3, hang up
    raw.write_all(&100u32.to_le_bytes()).unwrap();
    raw.write_all(&[1, 2, 3]).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("error frame");
    match decode_response(&resp).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("truncated"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn garbage_payload_is_rejected() {
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut raw, &[0xee, 0xff, 0x00]).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("error frame");
    assert!(
        matches!(decode_response(&resp).unwrap(), Response::Error { .. }),
        "unknown tag must produce an Error response"
    );
    server.shutdown();
}

/// The v2 handshake gate: a client that skips `Hello` (a v1 client, say)
/// gets a typed fatal error naming the handshake, not silence.
#[test]
fn missing_handshake_is_a_typed_fatal_error() {
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let stats = encode_request(&Request::Stats { id: 1 }).unwrap();
    write_frame(&mut raw, &stats).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("error frame");
    match decode_response(&resp).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("handshake"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // a version mismatch is equally typed
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let old = encode_request(&Request::Hello { version: 1 }).unwrap();
    write_frame(&mut raw, &old).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("error frame");
    match decode_response(&resp).unwrap() {
        Response::Error { message, .. } => {
            assert!(message.contains("version mismatch"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_template_is_an_error_not_a_hangup() {
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.query("no_such_template", &[]).unwrap_err();
    assert!(
        matches!(&err, ClientError::Remote(m) if m.contains("unknown template")),
        "{err:?}"
    );
    // the session survives a request-level error
    let reply = client
        .query("count_range", &[Value::Int(0), Value::Int(100)])
        .unwrap();
    assert_eq!(reply.exports.len(), 1);
    client.close().unwrap();
    server.shutdown();
}

// ----- connection-level admission control -----------------------------------

#[test]
fn connections_beyond_capacity_are_rejected_busy() {
    let server = Server::start(
        serving_db(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            backlog: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A and B fill the live-connection envelope (max_sessions + backlog
    // = 2); under the reactor both are served concurrently by the one
    // worker rather than one queueing behind the other
    let mut a = Client::connect(addr).unwrap();
    a.query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();
    let mut b = Client::connect(addr).unwrap();
    b.query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();
    // C is over capacity: the Busy rejection arrives in place of the
    // handshake ack, so the connect itself reports it
    let err = Client::connect(addr).err().expect("over-capacity connect");
    assert!(matches!(err, ClientError::Busy(_)), "{err:?}");
    assert!(server.rejected_connections() >= 1);

    b.close().unwrap();
    a.close().unwrap();
    server.shutdown();
}

/// Regression for the accept stall: Busy rejections once blocked the
/// accept thread (later a capped pool of detached writer threads —
/// the PR 5 stopgap). Under the reactor a rejection is just bytes on a
/// nonblocking write buffer with a linger deadline, so a swarm of
/// connections that never read their Busy frames must not slow accepts,
/// later clients still get their verdict promptly, and every turned-away
/// socket still receives its Busy frame.
#[test]
fn busy_rejections_of_non_reading_clients_do_not_stall_accepts() {
    use std::time::{Duration, Instant};
    let server = Server::start(
        serving_db(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            backlog: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A and B occupy the two connection slots
    let mut a = Client::connect(addr).unwrap();
    a.query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();
    let b = Client::connect(addr).unwrap();

    // a swarm over capacity, none of which ever reads its Busy frame
    let hostile = 16usize;
    let mut swarm: Vec<TcpStream> = (0..hostile)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();

    // the reactor must keep turning connections away at full speed — if
    // an unread Busy write could block anything, the rejected counter
    // would freeze here
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.rejected_connections() < hostile as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.rejected_connections() >= hostile as u64,
        "accepts stalled behind non-reading clients: only {} of {hostile} rejected",
        server.rejected_connections()
    );

    // a late polite client still gets its verdict promptly
    let t0 = Instant::now();
    let err = Client::connect(addr).err().expect("over-capacity connect");
    assert!(matches!(err, ClientError::Busy(_)), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "late client waited {:?} behind the hostile swarm",
        t0.elapsed()
    );

    // and the hostile sockets did each receive their Busy frame — it was
    // queued on the nonblocking write buffer despite the peers never
    // polling
    for raw in &mut swarm {
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let payload = read_frame(raw).unwrap().expect("busy frame delivered");
        assert!(
            matches!(decode_response(&payload).unwrap(), Response::Busy { .. }),
            "hostile socket must still be sent Busy"
        );
    }

    drop(swarm);
    drop(b);
    a.close().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_returns_while_an_idle_connection_is_still_open() {
    // Regression: an idle-but-open connection must not block shutdown's
    // join (under the reactor nothing blocks on it anyway; the reactor
    // severs every socket on the way out).
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut idle = Client::connect(server.local_addr()).unwrap();
    // make sure the connection is actually in service before shutting down
    idle.query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();
    server.shutdown(); // must return, not hang, with `idle` still open
    assert!(
        idle.query("count_range", &[Value::Int(0), Value::Int(10)])
            .is_err(),
        "the severed connection must be dead after shutdown"
    );
}

// ----- pipelining ------------------------------------------------------------

/// The acceptance identity for wire pipelining: a connection holding many
/// requests in flight, collected out of submission order, must produce
/// byte-identical results to a sequential client — request ids, not
/// arrival order, match answers to questions.
#[test]
fn pipelined_responses_match_sequential_by_request_id() {
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let ranges: Vec<(i64, i64)> = (0..24)
        .map(|i| ((i * 67) % 800, (i * 67) % 800 + 300))
        .collect();

    // sequential ground truth over the same server
    let mut seq = Client::connect(addr).unwrap();
    let expected: Vec<Vec<(String, Value)>> = ranges
        .iter()
        .map(|&(lo, hi)| {
            seq.query("count_range", &[Value::Int(lo), Value::Int(hi)])
                .unwrap()
                .exports
        })
        .collect();
    seq.close().unwrap();

    // pipelined: everything in flight at once, collected in reverse
    let mut pip = Client::connect(addr).unwrap();
    let ids: Vec<u64> = ranges
        .iter()
        .map(|&(lo, hi)| {
            pip.send_query("count_range", &[Value::Int(lo), Value::Int(hi)])
                .unwrap()
        })
        .collect();
    for (k, id) in ids.iter().enumerate().rev() {
        let result = pip.recv_query(*id).unwrap();
        assert_eq!(
            result.exports, expected[k],
            "pipelined response {k} diverged from sequential"
        );
    }

    // and batched, with a stats request riding in the middle of the
    // stream (the server answers it out of band on the reactor; the id
    // match keeps everyone honest whatever the arrival order)
    let params: Vec<Vec<Value>> = ranges
        .iter()
        .map(|&(lo, hi)| vec![Value::Int(lo), Value::Int(hi)])
        .collect();
    let batch: Vec<(&str, &[Value])> = params
        .iter()
        .map(|p| ("count_range", p.as_slice()))
        .collect();
    let half: Vec<u64> = batch[..12]
        .iter()
        .map(|(t, p)| pip.send_query(t, p).unwrap())
        .collect();
    let sid = pip.send_stats().unwrap();
    let rest: Vec<u64> = batch[12..]
        .iter()
        .map(|(t, p)| pip.send_query(t, p).unwrap())
        .collect();
    let pairs = pip.recv_stats(sid).unwrap();
    assert!(
        pairs.iter().any(|(n, _)| n == "server_live_connections"),
        "stats must include the reactor's connection gauge: {pairs:?}"
    );
    for (k, id) in half.iter().chain(rest.iter()).enumerate() {
        assert_eq!(pip.recv_query(*id).unwrap().exports, expected[k]);
    }

    // query_many: one flush, batch order out, whatever order back
    let results = pip.query_many(&batch).unwrap();
    for (k, r) in results.iter().enumerate() {
        assert_eq!(r.exports, expected[k], "query_many item {k} diverged");
    }
    pip.close().unwrap();
    server.shutdown();
}

// ----- concurrent-connections stress ----------------------------------------

/// N TCP clients replay overlapping query streams; every wire answer must
/// equal the in-process answer for the same parameters, the clients must
/// reuse each other's intermediates through the shared pool, and the
/// server-wide stats identity (every marked instruction hits or resolves
/// as exactly one admission outcome) must hold — the same identity the
/// in-process 16-thread stress pins down.
#[test]
fn concurrent_clients_match_in_process_sessions() {
    let clients = 6usize;
    let per_client = 20usize;
    let ranges: Vec<(i64, i64)> = (0..8).map(|i| (i * 40, i * 40 + 500)).collect();

    // ground truth: the same queries through an in-process session on an
    // identically built database
    let local = serving_db();
    let lt = local.template("count_range").unwrap();
    let mut local_session = local.session();
    let expected: Vec<Vec<(String, Value)>> = ranges
        .iter()
        .map(|&(lo, hi)| {
            local_session
                .query(&lt, &[Value::Int(lo), Value::Int(hi)])
                .unwrap()
                .exports
        })
        .collect();

    let server = Server::start(
        serving_db(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: clients,
            backlog: clients,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..clients {
            let ranges = &ranges;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..per_client {
                    let k = (c + i) % ranges.len();
                    let (lo, hi) = ranges[k];
                    let reply = client
                        .query("count_range", &[Value::Int(lo), Value::Int(hi)])
                        .unwrap();
                    assert_eq!(
                        reply.exports, expected[k],
                        "client {c} query {i} diverged from in-process"
                    );
                }
                client.close().unwrap();
            });
        }
    });

    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    c.close().unwrap();
    server.shutdown();
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(
        stat("monitored"),
        stat("hits")
            + stat("admissions")
            + stat("duplicate_admissions")
            + stat("admission_rejects"),
        "server stats identity must hold under concurrent wire traffic: {stats:?}"
    );
    assert!(
        stat("cross_session_hits") > 0,
        "overlapping client streams must reuse across connections: {stats:?}"
    );
    assert_eq!(
        stat("sessions"),
        clients as u64, // sessions are lazy: one per *querying* connection;
        // the stats probe connection never instantiates one
        "{stats:?}"
    );
}

// ----- wire-level starvation regression --------------------------------------

/// The starvation regression over TCP: a flooding connection fills the
/// capped pool, and another connection's queries still admit exactly what
/// they admit on a fresh server without the flooder — one admission gate,
/// with eviction making room — and its repeat is served from the pool.
#[test]
fn flooding_client_cannot_starve_another_clients_admissions() {
    /// The victim's per-query admissions over the wire, after `flood`
    /// distinct flooder queries against the same server.
    fn victim_admissions(flood: i64) -> Vec<u64> {
        let mut cat = catalog();
        let mut tb = TableBuilder::new("v").column("x", LogicalType::Int);
        for i in 0..2000i64 {
            tb.push_row(&[Value::Int((i * 13) % 2000)]);
        }
        cat.add_table(tb.finish());
        let mut vb = ProgramBuilder::new("victim_range", 2);
        let col = vb.bind("v", "x");
        let sel = vb.select_closed(col, P(0), P(1));
        let n = vb.count(sel);
        vb.export("n", n);

        let db = DatabaseBuilder::new(cat)
            .recycler(
                RecyclerConfig::default()
                    .admission(AdmissionPolicy::KeepAll)
                    .subsumption(false)
                    .entry_limit(20),
            )
            .template("count_range", count_template())
            .template("victim_range", vb.finish())
            .build();
        let server = Server::start(
            db,
            "127.0.0.1:0",
            ServerConfig {
                max_sessions: 2,
                backlog: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let mut flooder = Client::connect(addr).unwrap();
        let mut victim = Client::connect(addr).unwrap();
        for i in 0..flood {
            flooder
                .query("count_range", &[Value::Int(i * 7), Value::Int(i * 7 + 3)])
                .unwrap();
        }
        if flood > 0 {
            let stats = flooder.stats().unwrap();
            let evictions = stats.iter().find(|(n, _)| n == "evictions");
            assert!(
                evictions.is_some_and(|(_, v)| *v > 0),
                "the flooder must fill the pool: {stats:?}"
            );
        }
        let range = |i: i64| [Value::Int(i * 100), Value::Int(i * 100 + 50)];
        let admitted = (0..5)
            .map(|i| victim.query("victim_range", &range(i)).unwrap().admitted)
            .collect();
        let repeat = victim.query("victim_range", &range(0)).unwrap();
        assert_eq!(repeat.reused, repeat.marked, "the repeat must fully hit");
        flooder.close().unwrap();
        victim.close().unwrap();
        server.shutdown();
        admitted
    }
    let alone = victim_admissions(0);
    assert!(alone.iter().all(|n| *n > 0), "{alone:?}");
    assert_eq!(
        victim_admissions(100),
        alone,
        "the flooder changed what the victim admits over the wire"
    );
}

// ----- robustness: slow-loris timeout, deadlines, graceful shutdown ---------

/// Mid-frame stalls are killed; idle keep-alive is free. A peer that
/// sends half a length prefix and then goes silent gets a typed `Error`
/// frame past `read_timeout`, while a connection sitting quietly *between*
/// frames for many multiples of the same timeout stays fully serviceable —
/// the deadline arms only inside a frame.
#[test]
fn slow_loris_connections_are_timed_out_with_a_typed_error() {
    use std::time::Duration;
    let server = Server::start(
        serving_db(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            backlog: 4,
            read_timeout: Some(Duration::from_millis(100)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // an idle keep-alive connection, opened before the loris...
    let mut idle = Client::connect(addr).unwrap();
    idle.query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();

    // ...and a handshaken slow loris: half a length prefix, then silence
    let mut loris = TcpStream::connect(addr).unwrap();
    let hello = encode_request(&Request::Hello {
        version: PROTOCOL_VERSION,
    })
    .unwrap();
    write_frame(&mut loris, &hello).unwrap();
    let ack = read_frame(&mut loris).unwrap().expect("handshake ack");
    assert!(matches!(
        decode_response(&ack).unwrap(),
        Response::Hello { .. }
    ));
    loris.write_all(&[8, 0]).unwrap();

    let payload = read_frame(&mut loris)
        .unwrap()
        .expect("a typed goodbye, not a silent close");
    match decode_response(&payload).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 0, "timeouts are connection-fatal");
            assert!(message.contains("read timeout"), "{message}");
        }
        other => panic!("expected the timeout Error frame, got {other:?}"),
    }
    // ... after which the server hangs up,
    assert_eq!(read_frame(&mut loris).unwrap(), None);
    // the timeout is counted,
    assert!(server.counters().read_timeouts() >= 1);

    // meanwhile the idle connection sat at a frame boundary for several
    // timeouts' worth of wall clock — and is still fully serviceable,
    // because idle between frames costs nothing
    std::thread::sleep(Duration::from_millis(300));
    idle.query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();
    idle.close().unwrap();

    // and a fresh client is served normally
    let mut client = Client::connect(addr).unwrap();
    client
        .query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();
    client.close().unwrap();
    server.shutdown();
}

/// Deadline taxonomy: a zero budget fails fast with the typed
/// [`recycling::Error::Deadline`] in process, and the wire deadline field
/// round-trips — a generous budget serves normally.
#[test]
fn query_deadlines_are_typed_in_process_and_honoured_over_the_wire() {
    use std::time::Duration;
    let db = serving_db();
    let template = db.template("count_range").unwrap();
    let mut session = db.session();
    let err = session
        .query_with_deadline(&template, &[Value::Int(0), Value::Int(10)], Duration::ZERO)
        .unwrap_err();
    assert!(matches!(err, recycling::Error::Deadline), "{err:?}");
    assert_eq!(err.to_string(), "query deadline exceeded");

    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client
        .query_with_deadline(
            "count_range",
            &[Value::Int(0), Value::Int(10)],
            Duration::from_secs(60),
        )
        .expect("a generous budget serves normally");
    assert_eq!(reply.exports[0].1, Value::Int(11));
    client.close().unwrap();
    server.shutdown();
}

/// `shutdown_graceful` answers what is in flight, then stops: it joins
/// every thread within the grace window even with a client connection
/// sitting idle, and the address stops serving.
#[test]
fn graceful_shutdown_drains_and_stops_serving() {
    use std::time::{Duration, Instant};
    let server = Server::start(serving_db(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .query("count_range", &[Value::Int(0), Value::Int(10)])
        .unwrap();

    // The connection is idle at a frame boundary: the drain closes it
    // immediately, and the grace window bounds the join either way.
    let started = Instant::now();
    server.shutdown_graceful(Duration::from_millis(200));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "graceful shutdown must join promptly"
    );
    // The drained server no longer answers.
    let gone = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.stats().is_err(),
    };
    assert!(gone, "address still serving after graceful shutdown");
    drop(client);
}

/// A row whose value does not fit its column is an input error, refused
/// before anything is staged: in process a typed `InvalidUpdate`, over
/// the wire an error reply on a connection that keeps serving — not a
/// panic in the committing worker. Nothing of the refused commit shows:
/// same epoch, same rows, same pool.
#[test]
fn mistyped_commit_row_is_an_error_not_a_worker_panic() {
    let db = serving_db();
    let mistyped = || vec![vec![Value::Int(1), Value::str("not an int")]];
    let fits = || vec![vec![Value::Int(1), Value::Nil]];
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let count_all = |c: &mut Client| {
        let r = c
            .query("count_range", &[Value::Int(0), Value::Int(5000)])
            .unwrap();
        r.exports[0].1.clone()
    };
    assert_eq!(count_all(&mut c), Value::Int(2000)); // warms the pool
    let (epoch, pool_entries) = (db.epoch(), db.pool().len());

    let mut session = db.session();
    let err = session
        .commit(
            recycling::Update::to("t")
                .insert(mistyped())
                .delete(vec![0]),
        )
        .unwrap_err();
    assert!(
        matches!(err, recycling::Error::Bat(rbat::BatError::InvalidUpdate(_))),
        "{err:?}"
    );
    match c.commit("t", mistyped(), vec![0]) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("invalid update"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }

    assert_eq!(server.counters().worker_panics(), 0);
    assert_eq!(db.epoch(), epoch);
    assert_eq!(db.catalog().table("t").unwrap().nrows(), 2000);
    assert_eq!(db.pool().len(), pool_entries);
    assert_eq!(db.stats().invalidated, 0);
    // the connection and the committer still serve, and nothing of the
    // refused rows was left staged for the next commit to pick up
    assert_eq!(c.commit("t", fits(), vec![]).unwrap(), (1, 0, epoch + 1));
    assert_eq!(count_all(&mut c), Value::Int(2001));
    c.close().unwrap();
    server.shutdown();
}
