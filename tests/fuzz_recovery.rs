//! Fuzz harness for malformed-input recovery: byte soup, truncation sweeps
//! and single-byte mutations of valid queries, all ingested in Lenient
//! mode. Every case asserts the hardening contract end-to-end — no panic
//! escapes, and the in-process, sharded and served engine and the
//! sequential oracle produce byte-identical reports and error tallies.
//!
//! The case count defaults to 48 per property and scales with the
//! `PROPTEST_CASES` environment variable (the CI fuzz-smoke job runs an
//! elevated count). Cases are generated deterministically by the
//! proptest shim; a failure prints the offending inputs, which double as
//! the reproduction seed.

mod common;

use common::{
    memory_readers, readers, serve_config, start_server, submit_specs, Scratch, SETTLE, WORKER,
};
use proptest::prelude::*;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::corpus::{analyze_streams_with, FileLogReader, FusedOptions, LogReader};
use sparqlog::core::report::full_report;
use sparqlog::core::{Population, RawLog, RecoveryPolicy};
use sparqlog::serve::{Client, JobPhase, ServerHandle};
use sparqlog::shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const VALID_BEFORE: &str = "SELECT ?x WHERE { ?x a <http://example.org/Widget> }";
const VALID_AFTER: &str = "ASK { ?a <http://example.org/p> ?b }";

/// Writes one fuzz corpus into its own scratch directory, which goes when
/// the returned guard drops, and returns both.
fn write_case(prefix: &str, bytes: &[u8]) -> (Scratch, PathBuf) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let scratch = Scratch::new(&format!("{prefix}-{n}"));
    let path = scratch.path().join("case.log");
    std::fs::write(&path, bytes).expect("write fuzz case");
    (scratch, path)
}

/// The fuzz corpus as the oracle takes it: the lines as the reader splits
/// them. An invalid-UTF-8 line is a reader-level defect that never reaches
/// a parser, so no `RawLog` can hold one: a placeholder that is not SPARQL
/// stands in for it and fails to parse instead, at the same position.
/// Returns whether any line needed one.
fn raw_log(path: &PathBuf) -> (RawLog, bool) {
    let mut reader = FileLogReader::open("fuzz", path).expect("open fuzz log");
    let mut entries = Vec::new();
    let mut defective = false;
    loop {
        match reader.read_batch(&mut entries, 64) {
            Ok(0) => break,
            Ok(_) => {}
            Err(error) => {
                assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
                defective = true;
                entries.push("(invalid UTF-8)".to_string());
            }
        }
    }
    (RawLog::new("fuzz", entries), defective)
}

/// One server shared by every fuzz case (starting one per case would
/// dominate the runtime); submissions are serialized through one client.
fn serve_client() -> &'static Mutex<Client> {
    static SERVER: OnceLock<(Mutex<Client>, ServerHandle)> = OnceLock::new();
    let (client, _handle) = SERVER.get_or_init(|| {
        let (addr, handle, _runner) = start_server(serve_config(WorkerCommand::new(WORKER)));
        let client = Client::connect(&addr).expect("connect");
        (Mutex::new(client), handle)
    });
    client
}

/// The hardening contract, asserted for one fuzz corpus: Lenient ingestion
/// never fails, and the fused (1/2/8 workers), sharded and served engine
/// and the oracle agree byte-for-byte on the report and the error tally.
fn assert_engines_agree(prefix: &str, bytes: &[u8]) {
    let (_scratch, path) = write_case(prefix, bytes);
    let logs = vec![LogSpec::new("fuzz", &path)];

    let reference = analyze_streams_with(
        readers(&logs),
        Population::Unique,
        FusedOptions {
            workers: 1,
            batch: 0,
            recovery: RecoveryPolicy::Lenient,
        },
    )
    .expect("lenient fused ingestion must recover any input");
    let report = full_report(&reference.corpus);

    for (workers, batch) in [(2, 1), (8, 7)] {
        let fused = analyze_streams_with(
            readers(&logs),
            Population::Unique,
            FusedOptions {
                workers,
                batch,
                recovery: RecoveryPolicy::Lenient,
            },
        )
        .expect("lenient fused ingestion must recover any input");
        assert_eq!(fused.summaries, reference.summaries, "{workers} workers");
        assert_eq!(full_report(&fused.corpus), report, "{workers} workers");
    }

    // The oracle, against the engine over the same in-memory entries —
    // and, when every line decoded, against the file-backed runs too.
    let (raw, defective) = raw_log(&path);
    let oracle = analyze_reference(std::slice::from_ref(&raw), Population::Unique);
    let in_memory = analyze_streams_with(
        memory_readers(std::slice::from_ref(&raw)),
        Population::Unique,
        FusedOptions {
            workers: 2,
            batch: 3,
            recovery: RecoveryPolicy::Lenient,
        },
    )
    .expect("lenient fused ingestion must recover any input");
    assert_eq!(in_memory.summaries[0].counts, oracle.datasets[0].counts);
    assert_eq!(in_memory.summaries[0].errors, oracle.datasets[0].errors);
    assert_eq!(
        full_report(&in_memory.corpus),
        full_report(&oracle),
        "oracle"
    );
    if !defective {
        assert_eq!(oracle.datasets[0].errors, reference.summaries[0].errors);
        assert_eq!(full_report(&oracle), report, "oracle");
    }

    let options = ShardOptions {
        shards: 2,
        worker_threads: 2,
        worker: WorkerCommand::new(WORKER),
        recovery: RecoveryPolicy::Lenient,
    };
    let sharded =
        analyze_sharded(&logs, Population::Unique, &options).expect("sharded run must recover");
    assert_eq!(sharded.summaries, reference.summaries, "sharded");
    assert_eq!(full_report(&sharded.corpus), report, "sharded");

    let mut client = serve_client().lock().expect("serve client");
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Lenient,
            submit_specs(&logs),
        )
        .expect("submit fuzz job");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "served: {}", status.error);
    assert_eq!(
        status.errors,
        reference.summaries[0].errors.total(),
        "served"
    );
    let served = client.report(job, true).expect("report");
    assert_eq!(served.text, report, "served");
    drop(client);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte soup — embedded NULs, stray newlines, invalid UTF-8,
    /// anything — never panics and never diverges between engines.
    #[test]
    fn byte_soup_recovers_identically_everywhere(
        bytes in prop::collection::vec(0u8..=255u8, 0..600),
    ) {
        assert_engines_agree("soup", &bytes);
    }

    /// A synthesized valid query truncated at an arbitrary byte offset
    /// (possibly mid-UTF-8-sequence), sandwiched between valid entries:
    /// the neighbors survive, the stump is tallied, every engine agrees.
    #[test]
    fn truncation_sweep_recovers_identically_everywhere(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        cut in 0usize..400,
    ) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::ALL[dataset_idx]), seed);
        let query = synth.fresh_query();
        let cut = cut.min(query.len());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(VALID_BEFORE.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&query.as_bytes()[..cut]);
        bytes.push(b'\n');
        bytes.extend_from_slice(VALID_AFTER.as_bytes());
        bytes.push(b'\n');
        assert_engines_agree("trunc", &bytes);
    }

    /// A synthesized valid query with one byte overwritten by an arbitrary
    /// value (which may inject a NUL, a newline that splits the entry, or
    /// an invalid UTF-8 byte): no panic, engines byte-identical.
    #[test]
    fn single_byte_mutation_recovers_identically_everywhere(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        position in 0usize..4_096,
        value in 0u8..=255u8,
    ) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::ALL[dataset_idx]), seed);
        let mut query = synth.fresh_query().into_bytes();
        let at = position % query.len();
        query[at] = value;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(VALID_BEFORE.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&query);
        bytes.push(b'\n');
        bytes.extend_from_slice(VALID_AFTER.as_bytes());
        bytes.push(b'\n');
        assert_engines_agree("mutate", &bytes);
    }
}
