//! `sparqlog-serve`: the long-running analysis daemon for the SPARQL
//! query-log study. Clients submit log-analysis jobs over TCP or a Unix
//! socket; the server partitions each job one-log-per-partition, fans the
//! partitions out to a pool of supervised `sparqlog-shard-worker`
//! processes (heartbeats, death detection, bounded-backoff restarts,
//! reassignment), merges the commutative per-log results, and serves
//! incremental Table-1..6 reports to any number of concurrent sessions.
//! A complete job's report is byte-identical to the in-process fused
//! engine's over the same files.
//!
//! With `--store` (a [`sparqlog_persist::SnapshotStore`]), the daemon is
//! also crash-safe across restarts: completed partitions persist under
//! their logs' canonical identities, job manifests commit durably, a
//! restarted daemon warm-starts every committed job, and resubmitting
//! already-analysed logs merges from the store without spawning a worker
//! ([`client::ConnectRetry`] rides the client across the restart).
//!
//! # Quickstart
//!
//! ```no_run
//! use sparqlog_serve::client::Client;
//! use sparqlog_serve::server::{ServeAddr, ServeConfig, Server};
//! use sparqlog_core::analysis::Population;
//! use sparqlog_core::RecoveryPolicy;
//! use std::time::Duration;
//!
//! // Server side (usually the `sparqlog-serve` binary):
//! let server = Server::bind(
//!     ServeConfig::default(),
//!     &ServeAddr::Tcp("127.0.0.1:7878".to_string()),
//! )?;
//! let handle = server.handle();
//! std::thread::spawn(move || server.run());
//!
//! // Client side (usually the `sparqlog-client` binary):
//! let mut client = Client::connect(&ServeAddr::Tcp("127.0.0.1:7878".to_string()))?;
//! let (job, partitions) = client.submit(
//!     Population::Unique,
//!     RecoveryPolicy::Lenient, // tally malformed entries instead of failing
//!     vec![("DBpedia".to_string(), "/logs/dbpedia.log".to_string())],
//! )?;
//! eprintln!("job {job} across {partitions} partitions");
//! let status = client.wait_settled(job, Duration::from_secs(300))?;
//! println!("{}", client.report(job, true)?.text);
//! eprintln!("{} worker restarts along the way", status.restarts);
//! handle.stop();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Modules
//!
//! - [`protocol`] — the length-prefixed request/response wire format,
//!   layered on the shard crate's `SQSN` codec.
//! - [`job`] — per-job partition slots with merge-once (no-double-count)
//!   semantics and incremental report rendering.
//! - [`supervisor`] — the worker pool: queue, restarts with exponential
//!   backoff, reassignment, structured failure.
//! - [`identity`] — the identity pass of a store-backed submit, memoized
//!   on stat stamps under the racy rule.
//! - [`server`] — listener, one thread per session answering its requests
//!   in order, graceful drain.
//! - [`client`] — a blocking typed client.
//! - [`events`] — the structured `key=value` event log.
//! - [`signal`] — SIGTERM/SIGINT → graceful-drain flag.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod events;
pub mod identity;
pub mod job;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod supervisor;

pub use client::{Client, ClientError, ConnectRetry};
pub use events::EventLog;
pub use job::{JobState, Jobs};
pub use protocol::{JobPhase, JobReport, JobStatus, Request, Response};
pub use server::{ServeAddr, ServeConfig, Server, ServerHandle};
pub use supervisor::{Supervisor, SupervisorConfig};
