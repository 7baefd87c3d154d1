//! Dependency-free observability for the sparqlog stack: lock-free
//! [`Counter`]/[`Gauge`] tallies, a log-linear-bucket [`LatencyHistogram`]
//! (mergeable like every other tally in the system), a process-wide
//! [`Registry`] with a zero-overhead-when-disabled discipline, [`Span`]
//! timing guards, and the typed [`EventRecord`] journal schema the serve
//! daemon's event log speaks.
//!
//! # Design rules
//!
//! * **Metrics never influence results.** Instrumentation reads the
//!   pipeline; it must not perturb it. `tests/obs.rs` proves reports stay
//!   byte-identical with metrics on and off across every engine.
//! * **Disabled means free.** [`enabled`] is a single relaxed atomic load;
//!   when it is `false` a counter add is a load-and-return, and a
//!   [`Span`] never calls `Instant::now`. `SPARQLOG_METRICS=0` turns the
//!   whole layer off; [`set_enabled`] overrides in-process (tests, the
//!   benchmark's overhead passes).
//! * **Everything merges.** A worker process snapshots its registry into
//!   the epilogue frame of its result stream; the coordinator absorbs it
//!   with [`Registry::absorb`]. Histogram merge is commutative and
//!   associative — the same discipline as the report tallies.
//!
//! # Quickstart
//!
//! ```
//! use sparqlog_obs as obs;
//!
//! // Handles are `&'static` and cheap to look up; hoist them out of loops.
//! let entries = obs::global().counter("quickstart_entries_total");
//! let latency = obs::global().histogram("quickstart_parse_us");
//!
//! for _ in 0..3 {
//!     let _span = latency.span(); // records elapsed µs on drop
//!     entries.add(1);
//! }
//!
//! let snapshot = obs::global().snapshot();
//! assert_eq!(snapshot.counter("quickstart_entries_total"), Some(3));
//! let text = snapshot.render_text();
//! assert!(text.contains("sparqlog_quickstart_entries_total 3"));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod journal;
pub mod metrics;
pub mod registry;

pub use journal::{EventRecord, ParseError};
pub use metrics::{Counter, Gauge, HistogramSnapshot, LatencyHistogram, Span};
pub use registry::{enabled, global, set_enabled, MetricsSnapshot, Registry};
