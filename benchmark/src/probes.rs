//! The per-layer budget of a traced run: turns the layer calls of
//! [`crate::layers`] and the spans of a traced window into the metrics of
//! [`crate::metrics::PER_LAYER`]. Every traced run measures every layer over
//! its own workload's files; which end-to-end metric each should move, on
//! which workload, is the interaction table in `README.md`.

use crate::gen::LogTruth;
use crate::layers::{self, Replay};
use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{ServeEnv, Window};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repeats of each probe.
const REPEATS: usize = 3;
/// Rounds of the replay / 1-worker / 2-worker / sharded / metrics-off /
/// metrics-on comparison.
const ROUNDS: usize = 4;
const SPAWNS: usize = 7;
const FLOOR_JOBS: usize = 7;
const PINGS: usize = 200;

const MIB: f64 = 1024.0 * 1024.0;

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The host's interference only ever adds time: for a figure that is a
/// difference or a ratio of two timings, the fastest of a few runs of each
/// is compared, not their medians.
fn fastest_of(mut sample: impl FnMut() -> io::Result<f64>, repeats: usize) -> io::Result<f64> {
    let mut fastest = f64::INFINITY;
    for _ in 0..repeats {
        fastest = fastest.min(sample()?);
    }
    Ok(fastest)
}

/// A side-by-side line: an external probe next to the program's own
/// histogram for the same stage. Informational — it flags drift between
/// what the benchmark measures and what the program reports about itself.
#[derive(Debug, Clone)]
pub struct Drift {
    pub stage: &'static str,
    pub external: String,
    pub program: String,
}

/// The parser, algebra, graph, core, shard, persist and obs layers over
/// `logs`, in this process. Returns violated checks (none on a correct
/// program).
pub fn engine_layers(
    logs: &[LogTruth],
    dir: &Path,
    values: &mut Values,
    drift: &mut Vec<Drift>,
) -> io::Result<Vec<String>> {
    let reference = layers::analyze_and_render(logs)?;
    let distinct: u64 = logs.iter().map(|log| log.unique).sum();
    let per_distinct = |total: f64| total / distinct.max(1) as f64;

    // The replay, one worker against two against one worker process, and
    // the program's own metrics off against on — round-robin, so that a
    // slow spell of the host falls on all of them alike, and each at its
    // fastest. A 1-worker pass runs inline on the calling thread, so its
    // wall time is the single-threaded CPU the replay's attributed time is
    // a share of.
    let timed_pass = |workers: usize| -> io::Result<f64> {
        let start = Instant::now();
        std::hint::black_box(layers::render(&layers::analyze_with(logs, workers)?));
        Ok(ms(start.elapsed()))
    };
    let mut replays = Vec::with_capacity(ROUNDS);
    let (mut replay_differs, mut sharded_differs) = (false, false);
    let [mut one_worker_ms, mut two_worker_ms, mut sharded_ms, mut metrics_off_ms, mut metrics_on_ms] =
        [f64::INFINITY; 5];
    for _ in 0..ROUNDS {
        let replay = layers::replay(logs)?;
        replay_differs |= replay.report != reference.report;
        replays.push(replay);
        one_worker_ms = one_worker_ms.min(timed_pass(1)?);
        two_worker_ms = two_worker_ms.min(timed_pass(2)?);
        let (elapsed, text) = layers::sharded_pass(logs)?;
        sharded_differs |= text != reference.report;
        sharded_ms = sharded_ms.min(ms(elapsed));
        layers::set_program_metrics(false);
        metrics_off_ms = metrics_off_ms.min(timed_pass(0)?);
        layers::set_program_metrics(true);
        metrics_on_ms = metrics_on_ms.min(timed_pass(0)?);
    }
    let mut violations = Vec::new();
    if replay_differs {
        violations.push("the replayed layers do not rebuild the engine's report".to_string());
    }
    if sharded_differs {
        violations.push("the sharded report differs from the in-process one".to_string());
    }
    let replay = Replay::fastest(replays).expect("ROUNDS > 0");
    let per_entry = |total: u64| total as f64 / replay.entries.max(1) as f64;
    values.set("parser.lex_ns_per_entry", per_entry(replay.lex_ns()));
    values.set("parser.parse_ns_per_entry", per_entry(replay.parse_ns()));
    values.set(
        "parser.fingerprint_ns_per_entry",
        per_entry(replay.fingerprint_ns()),
    );
    values.set("parser.tokens_per_entry", per_entry(replay.tokens));
    values.set(
        "parser.arena_bytes_per_entry",
        per_entry(replay.arena_bytes),
    );
    values.set("parser.invalid_share", 1.0 - per_entry(replay.valid));
    values.set(
        "algebra.walk_ns_per_distinct",
        per_distinct(replay.walk_ns() as f64),
    );
    values.set(
        "algebra.fragments_ns_per_distinct",
        per_distinct(replay.fragments_ns() as f64),
    );
    values.set(
        "graph.structural_ns_per_distinct",
        per_distinct(replay.structural_ns() as f64),
    );
    values.set("core.read_ns_per_entry", per_entry(replay.read_ns()));
    values.set(
        "core.read_mib_per_s",
        replay.bytes as f64 / MIB / (replay.read_ns().max(1) as f64 / 1e9),
    );
    values.set(
        "core.analyze_ns_per_distinct",
        per_distinct(replay.analyze_ns() as f64),
    );
    values.set(
        "core.fold_ns_per_distinct",
        per_distinct(replay.fold_ns() as f64),
    );
    values.set("core.render_us", replay.render_ns() as f64 / 1e3);
    values.set("core.cache_hit_ratio", reference.cache_hit_ratio());

    values.set("core.scale_2w", one_worker_ms / two_worker_ms);
    values.set(
        "core.unattributed_share",
        1.0 - replay.attributed_ns() as f64 / (one_worker_ms * 1e6),
    );
    values.set("shard.overhead_ms", sharded_ms - two_worker_ms);
    values.set(
        "obs.overhead_pct",
        (metrics_on_ms - metrics_off_ms) / metrics_off_ms * 100.0,
    );

    let (identity_bytes, identity_time) = layers::identity_pass(logs)?;
    values.set(
        "core.identity_mib_per_s",
        identity_bytes as f64 / MIB / identity_time.as_secs_f64().max(1e-9),
    );

    // Shard: the bare process, the codec, and one process boundary.
    let empty = LogTruth::write("empty", &dir.join("empty.log"), &[])?;
    values.set(
        "shard.spawn_ms",
        fastest_of(|| layers::worker_round_trip(&empty).map(ms), SPAWNS)?,
    );
    let codecs = (0..REPEATS)
        .map(|_| layers::codec_round_trip(&reference))
        .collect::<io::Result<Vec<_>>>()?;
    let codec_median = |field: fn(&layers::CodecProbe) -> f64| {
        median(&codecs.iter().map(field).collect::<Vec<f64>>()).unwrap_or(0.0)
    };
    values.set(
        "shard.encode_us_per_distinct",
        per_distinct(codec_median(|c| c.encode.as_secs_f64() * 1e6)),
    );
    values.set(
        "shard.decode_us_per_distinct",
        per_distinct(codec_median(|c| c.decode.as_secs_f64() * 1e6)),
    );
    values.set(
        "shard.snapshot_bytes_per_distinct",
        per_distinct(codecs[0].bytes as f64),
    );

    // Persist: commit, get, reopen.
    let store = layers::store_round_trip(&reference, logs, &dir.join("probe.store"))?;
    let commits: Vec<f64> = store.commits.iter().map(|&commit| ms(commit)).collect();
    values.set("persist.commit_ms_p50", median(&commits).unwrap_or(0.0));
    values.set("persist.get_us", store.get.as_secs_f64() * 1e6);
    values.set("persist.open_ms", ms(store.open));
    values.set(
        "persist.open_mib_per_s",
        store.file_bytes as f64 / MIB / store.open.as_secs_f64().max(1e-9),
    );
    values.set(
        "persist.bytes_per_distinct",
        per_distinct(store.file_bytes as f64),
    );

    // The program's own view of the same stages, from this process's
    // registry (the passes above ran here with metrics on).
    let snapshot = layers::local_metrics();
    let own = |name: &str| layers::histogram_line(&snapshot, name);
    let batch = 512.0;
    drift.push(Drift {
        stage: "read",
        external: format!(
            "{:.0} us per {batch}-entry batch",
            per_entry(replay.read_ns()) * batch / 1e3
        ),
        program: own("pipeline_read_us"),
    });
    drift.push(Drift {
        stage: "parse+fingerprint+analyze",
        external: format!(
            "{:.0} us per {batch}-entry batch",
            per_entry(
                replay.lex_ns() + replay.parse_ns() + replay.fingerprint_ns() + replay.analyze_ns()
            ) * batch
                / 1e3
        ),
        program: own("pipeline_parse_us"),
    });
    drift.push(Drift {
        stage: "analyze (per distinct form)",
        external: format!("{:.1} us", per_distinct(replay.analyze_ns() as f64) / 1e3),
        program: own("pipeline_analyze_us"),
    });
    drift.push(Drift {
        stage: "commit (record+commit+fsync)",
        external: format!("{:.0} us", median(&commits).unwrap_or(0.0) * 1e3),
        program: own("persist_commit_us"),
    });
    Ok(violations)
}

/// The serve layer: client-side spans and journal stamps of the traced
/// `window`, then pings, a metrics scrape, the floor jobs and a restart on
/// the store as the run left it — all against `env`'s daemon.
pub fn serve_layers(
    env: &mut ServeEnv,
    window: &Window,
    dir: &Path,
    values: &mut Values,
    drift: &mut Vec<Drift>,
) -> io::Result<()> {
    let p50 = |name: &str| median(&window.tracer.durations_ms(name)).unwrap_or(0.0);
    values.set("serve.submit_ms_p50", p50("serve.submit"));
    values.set("serve.settle_ms_p50", p50("serve.settle"));
    values.set("serve.fetch_ms_p50", p50("serve.fetch"));
    // No samples (and so 0) when the window spawned no worker: the
    // prediction for serve-warm.
    values.set("serve.queue_wait_ms_p50", p50("serve.queue_wait"));
    values.set("serve.worker_run_ms_p50", p50("serve.worker_run"));
    values.set("serve.restarts", window.restarts as f64);
    values.set(
        "serve.rss_kib_per_job",
        window.rss_growth_kib as f64 / window.samples_ms.len().max(1) as f64,
    );

    let mut client = env.daemon()?.connect()?;
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        client.ping().map_err(io::Error::other)?;
        pings.push(start.elapsed().as_secs_f64() * 1e6);
    }
    values.set("serve.ping_us_p50", median(&pings).unwrap_or(0.0));
    let mut scrapes = Vec::with_capacity(REPEATS);
    let mut snapshot = Default::default();
    for _ in 0..REPEATS {
        let start = Instant::now();
        snapshot = client.metrics().map_err(io::Error::other)?.0;
        scrapes.push(ms(start.elapsed()));
    }
    values.set("obs.scrape_ms", median(&scrapes).unwrap_or(0.0));
    drop(client);
    let own = |name: &str| layers::histogram_line(&snapshot, name);
    drift.push(Drift {
        stage: "daemon: worker-side analyze",
        external: format!(
            "worker_run p50 {:.1} ms per partition",
            p50("serve.worker_run")
        ),
        program: own("pipeline_parse_us"),
    });
    drift.push(Drift {
        stage: "daemon: commit",
        external: format!(
            "persist.commit_ms_p50 {:.2} ms (probe store)",
            values.get("persist.commit_ms_p50").unwrap_or(0.0)
        ),
        program: format!("{}; {}", own("persist_commit_us"), own("persist_fsync_us")),
    });

    // Floors: what a job costs when there is nothing to analyse.
    let one_entry = LogTruth::write("floor", &dir.join("floor.log"), &["ASK { ?s ?p ?o }"])?;
    // The job floor is what a client sees, poll quantum and all. The
    // partition floor is taken from the daemon's journal instead: seen
    // through a 25 ms poll, eight extra partitions cost zero, one or two
    // quanta and nothing in between.
    let mut one = (Vec::new(), Vec::new());
    let mut nine = Vec::new();
    for _ in 0..FLOOR_JOBS {
        let (client_ms, daemon_ms) = env.floor_job(&one_entry, 1)?;
        one.0.push(client_ms);
        one.1.push(daemon_ms);
        nine.push(env.floor_job(&one_entry, 9)?.1);
    }
    values.set("serve.job_floor_ms", median(&one.0).unwrap_or(0.0));
    values.set(
        "serve.partition_floor_ms",
        (median(&nine).unwrap_or(0.0) - median(&one.1).unwrap_or(0.0)) / 8.0,
    );

    // Spawn → first Pong on the store as this run populated it.
    env.restart()?;
    values.set("serve.ready_ms", ms(env.daemon()?.ready));
    Ok(())
}
