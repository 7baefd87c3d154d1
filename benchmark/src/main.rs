//! The repository's benchmark driver. See `README.md` in this directory.
//!
//! ```text
//! sparqlog-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//!     one run of one workload; the last stdout line is the result object
//! sparqlog-benchmark [--seed N] [--seconds S] [--out DIR] [--trace]
//!     every workload, each in a fresh process; writes BENCH_<workload>.json
//! sparqlog-benchmark compare A_DIR B_DIR
//!     base/new/ratio/verdict per workload and end-to-end metric
//! ```

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod probes;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use stats::{median, smoothed_percentile, supported_percentile};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{BatchEnv, Kind, ServeEnv, Spec, Window, SPECS};

/// `run_seconds` of `BENCHMARK.json`, for suite runs that do not say.
const DEFAULT_SECONDS: f64 = 15.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// An untraced run measures this many back-to-back slices of
/// `--seconds / SLICES` each and reports, per metric, the median slice. The
/// host this runs on slows down by a third for a second or two every few
/// seconds; a figure over the whole window moves with how many such bursts
/// it caught, the median slice does not.
const SLICES: usize = 5;

/// A traced run alternates untraced and traced slices — the difference of
/// their p50s is the tracing overhead, and alternating keeps the host's
/// drift out of it — this many of each, each this share of `--seconds`; the
/// layer probes take the rest.
const TRACED_PAIRS: usize = 3;
const TRACED_SLICE_SHARE: f64 = 0.1;

/// Length of the cold serve window a traced *batch* run drives over its own
/// files to measure the serve layer.
const BATCH_SERVE_SECONDS: f64 = 2.0;

/// Pool logs a traced serve run replays through the engine layers.
const SERVE_PROBE_LOGS: usize = 8;

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            // `--trace 0|1` from the harness, bare `--trace` by hand.
            "--trace" => {
                options.trace = match args.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, base, new] => compare::compare(Path::new(base), Path::new(new)),
            _ => Err("usage: compare A_DIR B_DIR".to_string()),
        }
    } else {
        parse_options(&args).and_then(|options| match &options.workload {
            Some(name) => match workloads::spec(name) {
                Some(spec) => run_one(spec, &options).map_err(|error| format!("{name}: {error}")),
                None => Err(format!(
                    "unknown workload {name:?}; one of {}",
                    SPECS.map(|spec| spec.name).join(", ")
                )),
            },
            None => run_suite(&options).map_err(|error| error.to_string()),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sparqlog-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One run of one workload.
// ---------------------------------------------------------------------------

enum Env {
    Batch(Box<BatchEnv>),
    Serve(Box<ServeEnv>),
}

impl Env {
    fn set_up(spec: &Spec, dir: &Path, seed: u64) -> io::Result<Env> {
        Ok(match spec.kind {
            Kind::Batch { entries, profile } => {
                Env::Batch(Box::new(BatchEnv::set_up(dir, entries, &profile, seed)?))
            }
            Kind::Serve { warm } => Env::Serve(Box::new(ServeEnv::set_up(dir, warm, seed)?)),
        })
    }

    fn run_window(&mut self, seconds: f64, tracer: Tracer) -> io::Result<Window> {
        match self {
            Env::Batch(env) => env.run_window(seconds, tracer),
            Env::Serve(env) => env.run_window(seconds, tracer),
        }
    }

    /// Stops what the environment started; returns what went wrong, plus
    /// the violations it collected along the way.
    fn tear_down(self) -> Vec<String> {
        match self {
            Env::Batch(env) => env.violations,
            Env::Serve(mut env) => {
                let mut violations = std::mem::take(&mut env.violations);
                if let Err(error) = env.stop() {
                    violations.push(error.to_string());
                }
                violations
            }
        }
    }

    fn corpus_fnv(&self) -> u64 {
        match self {
            Env::Batch(env) => env.corpus_fnv,
            Env::Serve(env) => env.corpus_fnv,
        }
    }

    /// Median time of the in-process passes that verified served reports.
    fn in_process_ms_p50(&self) -> Option<f64> {
        match self {
            Env::Batch(_) => None,
            Env::Serve(env) => median(&env.reference_ms),
        }
    }

    fn input(&self) -> &[gen::LogTruth] {
        match self {
            Env::Batch(env) => &env.logs,
            Env::Serve(env) => &env.pool,
        }
    }
}

/// What one run found, ready to print and to write.
struct RunResult {
    attempted: u64,
    failed: u64,
    values: Values,
    /// The run's entry in `BENCH_<workload>.json`, or (traced) its part of
    /// `BENCH_trace.json`; the metrics join it when it is written.
    record: Vec<(&'static str, Json)>,
    /// Lines for people, printed under the metric table.
    detail: Vec<String>,
    notes: Vec<String>,
}

/// One run inside a temp dir of its own. Hygiene holds on the error path
/// too: whatever the run left behind is found (and killed) before the temp
/// dir goes, and a survivor fails the run.
fn measure(spec: &Spec, options: &Options) -> io::Result<RunResult> {
    let root = sys::TempDir::new(spec.name)?;
    let result = if options.trace {
        traced_run(spec, options, root.path())
    } else {
        untraced_run(spec, options, root.path())
    };
    let leaked = sys::survivors(&root.marker());
    let mut result = result?;
    for pid in leaked {
        result.failed += 1;
        result.notes.push(format!("process {pid} survived the run"));
    }
    Ok(result)
}

fn run_one(spec: &Spec, options: &Options) -> io::Result<bool> {
    let result = measure(spec, options);
    sys::remove_temp_root();
    let result = result?;

    let inventory: Vec<(&str, &str)> = if options.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| (name, unit))
            .collect()
    };
    let metrics = Json::obj(inventory.iter().map(|&(name, unit)| {
        let value = result.values.get(name).unwrap_or(0.0);
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    println!(
        "{} seed {} — {} of {} units failed",
        spec.name, options.seed, result.failed, result.attempted
    );
    for &(name, unit) in &inventory {
        println!(
            "  {name:<34} {:>16.4} {unit}",
            result.values.get(name).unwrap_or(0.0)
        );
    }
    for line in &result.detail {
        println!("  {line}");
    }
    for note in &result.notes {
        println!("  ! {note}");
    }
    if let Some(out) = &options.out {
        let mut record = result.record;
        record.push(("metrics", metrics.clone()));
        write_outputs(out, spec, options.trace, Json::obj(record))?;
    }
    let correct = result.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(correct)
}

fn run_header(spec: &Spec, options: &Options, env: &Env) -> Vec<(&'static str, Json)> {
    let input = env.input();
    let sum =
        |field: fn(&gen::LogTruth) -> u64| Json::Num(input.iter().map(field).sum::<u64>() as f64);
    vec![
        ("workload", Json::str(spec.name)),
        ("why", Json::str(spec.why)),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        (
            "parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "corpus_fnv64",
            Json::Str(format!("{:016x}", env.corpus_fnv())),
        ),
        (
            "input",
            Json::obj([
                ("logs", Json::Num(input.len() as f64)),
                ("entries", sum(|log| log.total)),
                ("valid", sum(|log| log.valid)),
                ("unique", sum(|log| log.unique)),
                ("bytes", sum(|log| log.bytes)),
            ]),
        ),
    ]
}

fn untraced_run(spec: &Spec, options: &Options, root: &Path) -> io::Result<RunResult> {
    // Set up several times, report the median, measure on the last.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut violations = Vec::new();
    let mut env = None;
    for round in 0..SETUP_REPEATS {
        let dir = root.join(format!("s{round}"));
        let start = Instant::now();
        let fresh = Env::set_up(spec, &dir, options.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        if round + 1 < SETUP_REPEATS {
            violations.extend(fresh.tear_down());
            std::fs::remove_dir_all(&dir)?;
        } else {
            env = Some(fresh);
        }
    }
    let mut env = env.expect("SETUP_REPEATS > 0");
    let mut slices = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        slices.push(env.run_window(
            options.seconds / SLICES as f64,
            Tracer::new(Instant::now(), false),
        )?);
    }
    let window = Window::merged(slices);

    let mut values = Values::default();
    values.set("setup_s", median(&setups).unwrap_or(0.0));
    values.set(
        "entries_per_s",
        window.median_slice(|slice| slice.entries as f64 / slice.wall_s.max(1e-9)),
    );
    values.set(
        "report_ms_p50",
        window.median_slice(|slice| smoothed_percentile(&slice.samples_ms, 50.0).unwrap_or(0.0)),
    );
    values.set(
        "report_ms_p90",
        window.median_slice(|slice| smoothed_percentile(&slice.samples_ms, 90.0).unwrap_or(0.0)),
    );
    values.set(
        "cpu_us_per_entry",
        window.median_slice(|slice| slice.cpu_s * 1e6 / slice.entries.max(1) as f64),
    );
    values.set("peak_rss_mib", window.peak_rss_kib as f64 / 1024.0);

    let mut record = run_header(spec, options, &env);
    if let Some(in_process) = env.in_process_ms_p50() {
        record.push(("in_process_report_ms_p50", Json::Num(in_process)));
    }
    violations.extend(env.tear_down());
    // Failed units, plus every violated check outside a unit.
    let failed = window.failed + violations.len() as u64;
    let notes: Vec<String> = window.notes.iter().cloned().chain(violations).collect();
    record.extend([
        ("ops", Json::Num(window.attempted as f64)),
        ("failed_ops", Json::Num(failed as f64)),
        (
            "failed_share",
            Json::Num(failed as f64 / window.attempted.max(1) as f64),
        ),
        ("samples", Json::Num(window.samples_ms.len() as f64)),
        (
            "supported_percentile",
            Json::Num(supported_percentile(window.samples_ms.len())),
        ),
        ("slices", Json::Num(SLICES as f64)),
        ("measured_s", Json::Num(window.wall_s)),
        (
            "slice_detail",
            Json::Arr(
                window
                    .slices
                    .iter()
                    .map(|slice| {
                        Json::obj([
                            ("entries", Json::Num(slice.entries as f64)),
                            ("wall_s", Json::Num(slice.wall_s)),
                            ("cpu_s", Json::Num(slice.cpu_s)),
                            (
                                "samples_ms",
                                Json::Arr(
                                    slice.samples_ms.iter().map(|&ms| Json::Num(ms)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "setup_runs_s",
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("notes", Json::Arr(notes.iter().map(Json::str).collect())),
    ]);
    Ok(RunResult {
        attempted: window.attempted,
        failed,
        values,
        record,
        detail: Vec::new(),
        notes,
    })
}

fn traced_run(spec: &Spec, options: &Options, root: &Path) -> io::Result<RunResult> {
    let epoch = Instant::now();
    let mut env = Env::set_up(spec, &root.join("s0"), options.seed)?;
    let seconds = options.seconds * TRACED_SLICE_SHARE;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..TRACED_PAIRS {
        plain.push(env.run_window(seconds, Tracer::new(epoch, false))?);
        // Units of different slices stay apart: the slice rides above the
        // client index.
        traced.push(env.run_window(
            seconds,
            Tracer::new(epoch, true).with_unit_base((pair as u64) << 40),
        )?);
    }
    let (plain, traced) = (Window::merged(plain), Window::merged(traced));

    let mut values = Values::default();
    let mut drift = Vec::new();
    let mut violations = Vec::new();
    let slice_p50 =
        |slice: &workloads::Slice| smoothed_percentile(&slice.samples_ms, 50.0).unwrap_or(0.0);
    let (plain_p50, traced_p50) = (
        plain.median_slice(slice_p50),
        traced.median_slice(slice_p50),
    );
    values.set(
        "trace_overhead_pct",
        (traced_p50 - plain_p50) / plain_p50.max(f64::MIN_POSITIVE) * 100.0,
    );

    let probe_dir = root.join("probe");
    std::fs::create_dir_all(&probe_dir)?;
    let probe_logs: Vec<gen::LogTruth> = match &env {
        Env::Batch(env) => env.logs.clone(),
        Env::Serve(env) => env.pool.iter().take(SERVE_PROBE_LOGS).cloned().collect(),
    };
    violations.extend(probes::engine_layers(
        &probe_logs,
        &probe_dir,
        &mut values,
        &mut drift,
    )?);

    let mut record = run_header(spec, options, &env);
    if let Some(in_process) = env.in_process_ms_p50() {
        record.push(("in_process_report_ms_p50", Json::Num(in_process)));
    }
    let mut extra_spans = None;
    match &mut env {
        Env::Serve(env) => probes::serve_layers(env, &traced, &probe_dir, &mut values, &mut drift)?,
        Env::Batch(_) => {
            // A batch workload never talks to a daemon; its serve-layer
            // figures come from a short cold window over its own files.
            let mut serve = ServeEnv::over(&root.join("serve"), probe_logs, options.seed)?;
            let window = serve.run_window(BATCH_SERVE_SECONDS, Tracer::new(epoch, true))?;
            violations.extend(window.notes.iter().cloned());
            probes::serve_layers(&mut serve, &window, &probe_dir, &mut values, &mut drift)?;
            violations.extend(std::mem::take(&mut serve.violations));
            serve.stop()?;
            extra_spans = Some(window.tracer);
        }
    }
    violations.extend(env.tear_down());

    let span_counts = |tracer: &Tracer| {
        Json::Arr(
            tracer
                .self_ms_by_name()
                .into_iter()
                .map(|(name, self_ms, count)| {
                    Json::obj([
                        ("name", Json::str(name)),
                        ("count", Json::Num(count as f64)),
                        ("self_ms", Json::Num(self_ms)),
                    ])
                })
                .collect(),
        )
    };
    let failed = plain.failed + traced.failed + violations.len() as u64;
    let attempted = plain.attempted + traced.attempted;
    let notes: Vec<String> = plain
        .notes
        .iter()
        .chain(&traced.notes)
        .cloned()
        .chain(violations)
        .collect();
    record.extend([
        ("ops", Json::Num(attempted as f64)),
        ("failed_ops", Json::Num(failed as f64)),
        ("traced_s", Json::Num(seconds * TRACED_PAIRS as f64)),
        ("untraced_report_ms_p50", Json::Num(plain_p50)),
        ("traced_report_ms_p50", Json::Num(traced_p50)),
        ("samples", Json::Num(traced.samples_ms.len() as f64)),
        // Self time per span name over the traced window of the workload
        // itself: a name that is absent never ran (no `serve.worker_run`
        // on serve-warm means no worker was spawned).
        ("window_self_ms", span_counts(&traced.tracer)),
        (
            "drift",
            Json::Arr(
                drift
                    .iter()
                    .map(|line| {
                        Json::obj([
                            ("stage", Json::str(line.stage)),
                            ("external", Json::str(&line.external)),
                            ("program", Json::str(&line.program)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Arr(notes.iter().map(Json::str).collect())),
        ("spans", traced.tracer.to_json()),
    ]);
    if let Some(tracer) = &extra_spans {
        record.push(("serve_probe_self_ms", span_counts(tracer)));
        record.push(("serve_probe_spans", tracer.to_json()));
    }
    let mut detail = vec!["spans of the traced window (name, count, total self ms):".to_string()];
    detail.extend(
        traced
            .tracer
            .self_ms_by_name()
            .into_iter()
            .map(|(name, self_ms, count)| format!("  {name:<24} {count:>6} {self_ms:>12.2}")),
    );
    detail.push("external probe | the program's own histogram:".to_string());
    detail.extend(
        drift
            .iter()
            .map(|line| format!("  {:<30} {} | {}", line.stage, line.external, line.program)),
    );
    Ok(RunResult {
        attempted,
        failed,
        values,
        record,
        detail,
        notes,
    })
}

// ---------------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------------

fn bench_path(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("BENCH_{workload}.json"))
}

fn trace_part_path(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("BENCH_trace_{workload}.json"))
}

/// An untraced run appends its record to `BENCH_<workload>.json` (runs into
/// the same directory accumulate, which is what `compare` takes its spread
/// from); a traced run writes its part of `BENCH_trace.json`.
fn write_outputs(out: &Path, spec: &Spec, traced: bool, record: Json) -> io::Result<()> {
    std::fs::create_dir_all(out)?;
    if traced {
        return std::fs::write(trace_part_path(out, spec.name), record.render_pretty());
    }
    let path = bench_path(out, spec.name);
    let mut runs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|file| file.get("runs").and_then(Json::as_arr).map(<[_]>::to_vec))
        .unwrap_or_default();
    runs.push(record);
    let file = Json::obj([
        ("workload", Json::str(spec.name)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(path, file.render_pretty())
}

// ---------------------------------------------------------------------------
// The suite: every workload, each in a fresh driver process.
// ---------------------------------------------------------------------------

fn run_suite(options: &Options) -> io::Result<bool> {
    let exe = std::env::current_exe()?;
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("bench_out"));
    let mut all_correct = true;
    let mut traces = Vec::new();
    for spec in &SPECS {
        for trace in [false, true] {
            if trace && !options.trace {
                continue;
            }
            let output = Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            // The child's last line is the machine-readable object; the
            // table above it is for people.
            let (last, table) = lines.split_last().unwrap_or((&"", &[]));
            for line in table {
                println!("{line}");
            }
            let correct = Json::parse(last)
                .ok()
                .and_then(|result| match result.get("correct") {
                    Some(Json::Bool(correct)) => Some(*correct),
                    _ => None,
                })
                .unwrap_or(false);
            if !correct || !output.status.success() {
                println!("  ! {} did not pass ({})", spec.name, output.status);
                all_correct = false;
            }
            if trace {
                let part = trace_part_path(&out, spec.name);
                if let Some(json) = std::fs::read_to_string(&part)
                    .ok()
                    .and_then(|text| Json::parse(&text).ok())
                {
                    traces.push((spec.name, json));
                }
                let _ = std::fs::remove_file(part);
            }
        }
    }
    if options.trace {
        std::fs::write(
            out.join("BENCH_trace.json"),
            Json::obj(traces).render_pretty(),
        )?;
    }
    println!("wrote {}/BENCH_*.json", out.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn options_accept_the_harness_and_the_hand_spelling() {
        let harness = parse_options(&strings(&[
            "--workload",
            "serve-cold",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(harness.workload.as_deref(), Some("serve-cold"));
        assert_eq!(
            (harness.seed, harness.seconds, harness.trace),
            (9, 15.0, false)
        );
        assert!(parse_options(&strings(&["--trace", "1"])).unwrap().trace);
        let hand = parse_options(&strings(&["--trace", "--out", "x"])).unwrap();
        assert!(hand.trace && hand.out == Some(PathBuf::from("x")) && hand.workload.is_none());
        assert_eq!(hand.seconds, DEFAULT_SECONDS);
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_options(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The daemon and worker binaries must sit beside this test binary's
    /// directory, built from the current sources with the same profile.
    fn build_program() {
        let dir = layers::program_dir().unwrap();
        let target = dir.parent().expect("profile dir inside a target dir");
        let mut cargo = Command::new(env!("CARGO"));
        cargo
            .args(["build", "--offline", "--bins", "--manifest-path"])
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .arg("--target-dir")
            .arg(target);
        if dir.ends_with("release") {
            cargo.arg("--release");
        }
        assert!(
            cargo.status().unwrap().success(),
            "building the program failed"
        );
    }

    /// All four workloads, untraced and traced, at the smoke scale: every
    /// unit correct, every metric of the inventory reported, and the
    /// workloads stressing the layers they claim to.
    #[test]
    fn smoke_run_of_all_four_workloads() {
        build_program();
        for spec in &SPECS {
            for trace in [false, true] {
                let options = Options {
                    workload: Some(spec.name.to_string()),
                    seed: 5,
                    seconds: 0.6,
                    trace,
                    out: None,
                };
                let result = measure(spec, &options)
                    .unwrap_or_else(|error| panic!("{}: {error}", spec.name));
                assert_eq!(
                    (result.failed, &result.notes),
                    (0, &Vec::new()),
                    "{} trace={trace}",
                    spec.name
                );
                assert!(result.attempted >= 1);
                let value = |name: &str| {
                    result
                        .values
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: no {name}", spec.name))
                };
                if !trace {
                    for (name, ..) in END_TO_END {
                        assert!(value(name) > 0.0, "{}: {name} = {}", spec.name, value(name));
                    }
                    continue;
                }
                for (name, ..) in PER_LAYER {
                    assert!(value(name).is_finite(), "{}: {name}", spec.name);
                }
                let spans = result
                    .record
                    .iter()
                    .find(|(key, _)| *key == "window_self_ms")
                    .map(|(_, spans)| spans.render())
                    .unwrap();
                match spec.name {
                    "batch-dup" => assert!(value("core.cache_hit_ratio") > 0.7),
                    "batch-distinct" => assert!(value("core.cache_hit_ratio") < 0.05),
                    "serve-cold" => assert!(
                        spans.contains("serve.worker_run")
                            && value("serve.worker_run_ms_p50") > 0.0
                    ),
                    _ => assert!(
                        !spans.contains("serve.worker_run") && spans.contains("serve.submit")
                    ),
                }
            }
        }
    }
}
