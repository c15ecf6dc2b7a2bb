//! # rcy-server — a TCP serving front-end for the recycler database
//!
//! The paper's §8 evaluation replays the SkyServer web log against one
//! MonetDB server instance: many remote clients, one shared recycler.
//! This crate is that serving shape for the [`recycling::Database`]
//! facade, built fully offline (std sockets + a hand-rolled epoll shim —
//! no tokio, no serde, no libc crate):
//!
//! * [`protocol`] — a length-prefixed wire protocol (v2: handshake +
//!   request ids, so one connection holds many in-flight requests),
//!   hardened against oversized, truncated and malformed frames, with an
//!   incremental [`protocol::FrameDecoder`] for nonblocking sockets;
//! * [`Server`] — an **epoll reactor**: one thread reads every socket
//!   and executes the requests a connection's history has proven cheap
//!   itself, with no hand-off; a small worker pool (`max_sessions`)
//!   executes the rest — only *runnable* sessions, pulled from a ready
//!   queue — so thousands of idle connections cost buffers, not
//!   threads. Connections beyond
//!   `max_connections` are turned away with a `Busy` frame queued on a
//!   nonblocking write buffer;
//! * [`Client`] — a blocking client with a pipelined API
//!   (`send_*`/`recv_*` split plus batched `query_many`) — see
//!   [`client`] for the worked example.
//!
//! Queries reference **named templates** registered on the database
//! ([`recycling::DatabaseBuilder::template`] /
//! [`recycling::Database::register`]) — the same factoring MonetDB's SQL
//! front-end performs, and what makes query requests cheap to ship: a
//! name plus parameter values.
//!
//! ```no_run
//! use rbat::{Catalog, LogicalType, TableBuilder, Value};
//! use recycling::DatabaseBuilder;
//! use rcy_server::{Client, Server, ServerConfig};
//! use rmal::{ProgramBuilder, P};
//!
//! let mut cat = Catalog::new();
//! let mut tb = TableBuilder::new("t").column("x", LogicalType::Int);
//! for i in 0..1000 { tb.push_row(&[Value::Int(i)]); }
//! cat.add_table(tb.finish());
//!
//! let mut b = ProgramBuilder::new("count_range", 2);
//! let col = b.bind("t", "x");
//! let sel = b.select_closed(col, P(0), P(1));
//! let n = b.count(sel);
//! b.export("n", n);
//!
//! let db = DatabaseBuilder::new(cat).template("count_range", b.finish()).build();
//! let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! // Blocking call-and-wait ...
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.query("count_range", &[Value::Int(10), Value::Int(500)]).unwrap();
//! println!("n = {:?} ({} of {} instructions recycled)",
//!          reply.exports[0].1, reply.reused, reply.marked);
//!
//! // ... or pipelined: both in flight at once, collected by request id.
//! let a = client.send_query("count_range", &[Value::Int(0), Value::Int(99)]).unwrap();
//! let b = client.send_query("count_range", &[Value::Int(100), Value::Int(199)]).unwrap();
//! let rb = client.recv_query(b).unwrap();
//! let ra = client.recv_query(a).unwrap();
//! println!("{:?} then {:?}", ra.exports, rb.exports);
//! client.close().unwrap();
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod client;
mod conn;
pub mod protocol;
pub mod server;
mod sys;

pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{
    FrameDecoder, ProtoError, QueryResult, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{ServeCounters, Server, ServerConfig};
pub use sys::raise_nofile_limit;
