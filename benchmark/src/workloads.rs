//! The four workloads: what each feeds the program, its unit of work, and
//! the closed loop that measures it. Inputs come from `--seed` through
//! [`crate::gen`]; the program only ever sees the generated files.
//!
//! All loops are closed: a client (or the pass loop) starts its next unit
//! when the previous one has delivered its report, for `--seconds` seconds.

use crate::gen::{Generator, LogTruth, Mix, Profile, SplitMix64};
use crate::layers::{self, Daemon};
use crate::sys;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The one size knob. The issue's corpus sizes (780 k / 156 k entries) are
/// divided by this so that a 15 s window holds at least a hundred passes on
/// a 2-core container — enough for `report_ms_p90` to have ten samples
/// beyond it on the batch workloads too. Serve jobs keep their full size:
/// they must stay several 25 ms poll quanta long.
pub const SCALE_DIVISOR: u64 = 8;

/// `cargo test` drives the same four workloads at a fiftieth of the size, so
/// the smoke run finishes in seconds in a debug build.
const SMOKE: bool = cfg!(test);

const fn sized(full: u64) -> u64 {
    if SMOKE {
        full / 50
    } else {
        full
    }
}

/// The duplicate-heavy regime of the paper's Table 1 (valid ≫ unique).
const DUP: Profile = Profile {
    occurrences: 12,
    perturbed_per_mille: 300,
    garbage_per_mille: 40,
    mix: Mix::Simple,
};

/// Every valid query a distinct canonical form.
const DISTINCT: Profile = Profile {
    occurrences: 1,
    perturbed_per_mille: 0,
    garbage_per_mille: 40,
    mix: Mix::Rich,
};

/// Share of a batch corpus each of its 13 logs holds, in percent: skewed
/// like the paper's sources, from one dominant log to two tiny ones.
const LOG_SHARES: [u64; 13] = [20, 14, 12, 10, 9, 8, 7, 6, 5, 4, 3, 1, 1];

/// Logs in a serve run's pool, logs per job, and the per-log size range.
/// Sizes vary fourfold so job latencies spread over several poll quanta;
/// they are evenly spaced over the range and only their order is drawn from
/// the seed, so every seed's pool holds the same number of entries.
const POOL_LOGS: u64 = 32;
const JOB_LOGS: usize = 4;
const POOL_ENTRIES: (u64, u64) = (sized(6_000), sized(24_000));

/// Jobs `serve-warm` analyses once in set-up and then resubmits.
const WARM_JOBS: usize = if SMOKE { 4 } else { 32 };

/// A closed-loop client cannot finish a cold job faster than one 25 ms
/// settle poll: this many planned jobs per second can never run out.
const COLD_JOBS_PER_SECOND: f64 = 40.0;

/// Daemon peak RSS is read when this many jobs have completed, not at the
/// end of the window: the daemon keeps every job it ever served, so a
/// figure read at the end would grow with throughput and a faster program
/// would look like a fatter one.
const COLD_RSS_CHECKPOINT: u64 = 64;
const WARM_RSS_CHECKPOINT: u64 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch { entries: u64, profile: Profile },
    Serve { warm: bool },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "batch-dup",
        why: "13 logs, ~92% of valid queries duplicates: read+lex+parse+fingerprint dominate, the cache absorbs analysis",
        kind: Kind::Batch {
            entries: sized(780_000 / SCALE_DIVISOR),
            profile: DUP,
        },
    },
    Spec {
        name: "batch-distinct",
        why: "13 logs, every valid query distinct and 4-8 triples: the cache always misses, analysis+fold dominate",
        kind: Kind::Batch {
            entries: sized(156_000 / SCALE_DIVISOR),
            profile: DISTINCT,
        },
    },
    Spec {
        name: "serve-cold",
        why: "1 client, never-seen 4-log jobs through the daemon: identity, queue, worker spawn, snapshot, commit+fsync, poll",
        kind: Kind::Serve { warm: false },
    },
    Spec {
        name: "serve-warm",
        why: "2 clients resubmit 32 stored jobs: engine bypassed, identity hash + store get + merge + render + protocol only",
        kind: Kind::Serve { warm: true },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

/// What one measured window produced.
#[derive(Debug)]
pub struct Window {
    /// Input handed over → full report text in hand, per delivered unit.
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Entries covered by delivered, correct reports.
    pub entries: u64,
    pub wall_s: f64,
    /// User+sys CPU of the engine process tree over the window.
    pub cpu_s: f64,
    /// `VmHWM` of the engine process (see the RSS checkpoints above).
    pub peak_rss_kib: u64,
    /// Engine process `VmRSS` growth over the window (serve only).
    pub rss_growth_kib: i64,
    pub restarts: u64,
    /// One line per failed unit or violated check.
    pub notes: Vec<String>,
    pub tracer: Tracer,
    /// The slices this window was merged from (empty for a single window).
    pub slices: Vec<Slice>,
}

/// The per-slice figures the end-to-end metrics take their median over.
#[derive(Debug, Clone)]
pub struct Slice {
    pub samples_ms: Vec<f64>,
    pub entries: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Window {
    /// Back-to-back windows as one: counts, samples and spans add up, each
    /// input stays visible as a [`Slice`].
    pub fn merged(windows: Vec<Window>) -> Window {
        let mut merged = Window::new(
            windows
                .first()
                .map_or_else(|| Tracer::new(Instant::now(), false), |w| w.tracer.fork()),
        );
        for window in windows {
            merged.slices.push(Slice {
                samples_ms: window.samples_ms.clone(),
                entries: window.entries,
                wall_s: window.wall_s,
                cpu_s: window.cpu_s,
            });
            merged.samples_ms.extend(window.samples_ms);
            merged.attempted += window.attempted;
            merged.failed += window.failed;
            merged.entries += window.entries;
            merged.wall_s += window.wall_s;
            merged.cpu_s += window.cpu_s;
            // Monotone (VmHWM) or pinned at the checkpoint: the last reading.
            merged.peak_rss_kib = window.peak_rss_kib;
            merged.rss_growth_kib += window.rss_growth_kib;
            merged.restarts += window.restarts;
            merged.notes.extend(window.notes);
            merged.tracer.absorb(window.tracer);
        }
        merged.notes.truncate(8);
        merged
    }

    /// The median over the slices of a per-slice figure.
    pub fn median_slice(&self, figure: impl Fn(&Slice) -> f64) -> f64 {
        let values: Vec<f64> = self.slices.iter().map(figure).collect();
        crate::stats::median(&values).unwrap_or(0.0)
    }

    fn new(tracer: Tracer) -> Window {
        Window {
            samples_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            entries: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_kib: 0,
            rss_growth_kib: 0,
            restarts: 0,
            notes: Vec::new(),
            tracer,
            slices: Vec::new(),
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        // A broken program fails every unit the same way; keep the first few.
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

// ---------------------------------------------------------------------------
// Batch.
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct BatchEnv {
    pub logs: Vec<LogTruth>,
    pub corpus_fnv: u64,
    /// Pass 0: the report every later pass must reproduce byte for byte.
    pub reference: layers::Pass,
    /// Oracle disagreements found in set-up (none on a correct program).
    pub violations: Vec<String>,
}

impl BatchEnv {
    /// Generation, the reference pass (which is also the warm-up) and the
    /// oracle check of its Table-1 counts.
    pub fn set_up(dir: &Path, entries: u64, profile: &Profile, seed: u64) -> io::Result<BatchEnv> {
        std::fs::create_dir_all(dir)?;
        let mut generator = Generator::new(seed);
        let logs = LOG_SHARES
            .iter()
            .enumerate()
            .map(|(i, share)| {
                generator.write_log(
                    &format!("log{i:02}"),
                    &dir.join(format!("{i:02}.log")),
                    entries * share / 100,
                    profile,
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        let reference = layers::analyze_and_render(&logs)?;
        let violations = layers::oracle_mismatches(&logs, &reference.counts());
        Ok(BatchEnv {
            logs,
            corpus_fnv: generator.fnv.0,
            reference,
            violations,
        })
    }

    pub fn entries(&self) -> u64 {
        self.logs.iter().map(|log| log.total).sum()
    }

    /// Passes back to back for `seconds`; each is one unit.
    pub fn run_window(&self, seconds: f64, tracer: Tracer) -> io::Result<Window> {
        let mut window = Window::new(tracer);
        let pid = std::process::id();
        let cpu_before = sys::cpu_seconds(pid)?;
        let start = Instant::now();
        loop {
            let unit = window.attempted;
            window.attempted += 1;
            let began = Instant::now();
            let pass = window.tracer.enter("pass", unit, None);
            let engine = window.tracer.enter("core.analyze_streams", unit, pass);
            let fused = layers::analyze(&self.logs);
            window.tracer.exit(engine);
            let text = fused.map(|fused| {
                let render = window.tracer.enter("core.full_report", unit, pass);
                let text = layers::render(&fused);
                window.tracer.exit(render);
                text
            });
            window.tracer.exit(pass);
            let elapsed = began.elapsed();
            match text {
                Ok(text) if text == self.reference.report => {
                    window.samples_ms.push(elapsed.as_secs_f64() * 1e3);
                    window.entries += self.entries();
                }
                Ok(_) => window.fail(format!("pass {unit}: report differs from pass 0")),
                Err(error) => window.fail(format!("pass {unit}: {error}")),
            }
            if elapsed > layers::UNIT_TIMEOUT {
                window.fail(format!("pass {unit}: took {elapsed:?}"));
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        window.wall_s = start.elapsed().as_secs_f64();
        window.cpu_s = sys::cpu_seconds(pid)? - cpu_before;
        window.peak_rss_kib = sys::peak_rss_kib(pid)?;
        Ok(window)
    }
}

// ---------------------------------------------------------------------------
// Serve.
// ---------------------------------------------------------------------------

/// One job: a few pool logs under labels of its own. The daemon keys its
/// store by (population, label, bytes), so a fresh label makes a log
/// never-seen while the run writes each byte to disk only once.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifies the (labels, files) combination for reference lookup.
    pub key: usize,
    pub logs: Vec<LogTruth>,
}

impl Job {
    pub fn entries(&self) -> u64 {
        self.logs.iter().map(|log| log.total).sum()
    }
}

/// One delivered report, kept for verification after the window.
#[derive(Debug)]
struct Delivery {
    key: usize,
    entries: u64,
    text: String,
    ms: f64,
}

/// Which daemon job a unit was, and the client-side spans its journal
/// stamps hang under.
#[derive(Debug)]
struct JournalEntry {
    daemon_job: u64,
    unit: u64,
    submit: Option<usize>,
    settle: Option<usize>,
}

/// What one client thread brings back from a window.
#[derive(Debug)]
struct ClientRun {
    attempted: u64,
    restarts: u64,
    deliveries: Vec<Delivery>,
    failures: Vec<String>,
    journal: Vec<JournalEntry>,
    tracer: Tracer,
}

impl ClientRun {
    fn new(tracer: Tracer) -> ClientRun {
        ClientRun {
            attempted: 0,
            restarts: 0,
            deliveries: Vec::new(),
            failures: Vec::new(),
            journal: Vec::new(),
            tracer,
        }
    }

    /// The unit of work of the serve workloads: submit → wait_settled →
    /// report(full), timed from the first byte sent to the text in hand.
    fn one_job(
        &mut self,
        client: &mut sparqlog::serve::Client,
        job: &Job,
        unit: u64,
    ) -> Result<(), String> {
        self.attempted += 1;
        let began = Instant::now();
        let root = self.tracer.enter("job", unit, None);
        let submit = self.tracer.enter("serve.submit", unit, root);
        let id = layers::submit(client, &job.logs);
        self.tracer.exit(submit);
        let outcome = id.and_then(|id| {
            let settle = self.tracer.enter("serve.settle", unit, root);
            let restarts = layers::settle(client, id);
            self.tracer.exit(settle);
            self.journal.push(JournalEntry {
                daemon_job: id,
                unit,
                submit,
                settle,
            });
            let restarts = restarts?;
            let fetch = self.tracer.enter("serve.fetch", unit, root);
            let text = layers::fetch(client, id);
            self.tracer.exit(fetch);
            Ok((text?, restarts))
        });
        self.tracer.exit(root);
        let elapsed = began.elapsed();
        let (text, restarts) = outcome.map_err(|error| format!("job {unit:#x}: {error}"))?;
        if elapsed > layers::UNIT_TIMEOUT {
            return Err(format!("job {unit:#x}: took {elapsed:?}"));
        }
        self.restarts += restarts;
        self.deliveries.push(Delivery {
            key: job.key,
            entries: job.entries(),
            text,
            ms: elapsed.as_secs_f64() * 1e3,
        });
        Ok(())
    }
}

#[derive(Debug)]
pub struct ServeEnv {
    dir: PathBuf,
    pub pool: Vec<LogTruth>,
    pub corpus_fnv: u64,
    daemon: Option<Daemon>,
    warm: bool,
    /// The stored jobs of `serve-warm`, empty on cold runs.
    warm_jobs: Vec<Job>,
    picks: SplitMix64,
    next_key: usize,
    /// In-process references by job key, computed on first need, and how
    /// long each took: the in-process side of the served-vs-in-process gap.
    references: HashMap<usize, String>,
    pub reference_ms: Vec<f64>,
    /// Jobs completed over all windows so far, and the daemon's `VmHWM`
    /// when that count crossed the checkpoint (0 until then).
    completed: AtomicU64,
    checkpoint_rss_kib: AtomicU64,
    pub violations: Vec<String>,
}

impl ServeEnv {
    /// Generates the pool and starts the daemon on an empty store. Warm:
    /// also analyses the stored jobs once and restarts the daemon on the
    /// store they populated.
    pub fn set_up(dir: &Path, warm: bool, seed: u64) -> io::Result<ServeEnv> {
        std::fs::create_dir_all(dir)?;
        let mut generator = Generator::new(seed);
        let mut sizes: Vec<u64> = (0..POOL_LOGS)
            .map(|i| POOL_ENTRIES.0 + (POOL_ENTRIES.1 - POOL_ENTRIES.0) * i / (POOL_LOGS - 1))
            .collect();
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, generator.rng().below(i as u64 + 1) as usize);
        }
        let mut pool = Vec::with_capacity(sizes.len());
        for (i, entries) in sizes.into_iter().enumerate() {
            pool.push(generator.write_log(
                &format!("pool{i:02}"),
                &dir.join(format!("{i:02}.log")),
                entries,
                &DUP,
            )?);
        }
        let picks = SplitMix64::new(generator.rng().next_u64());
        ServeEnv::start(dir, pool, generator.fnv.0, picks, warm)
    }

    /// A serve environment over logs that already exist (the traced batch
    /// runs measure the serve layers over their own files).
    pub fn over(dir: &Path, pool: Vec<LogTruth>, seed: u64) -> io::Result<ServeEnv> {
        std::fs::create_dir_all(dir)?;
        ServeEnv::start(dir, pool, 0, SplitMix64::new(seed), false)
    }

    fn start(
        dir: &Path,
        pool: Vec<LogTruth>,
        corpus_fnv: u64,
        picks: SplitMix64,
        warm: bool,
    ) -> io::Result<ServeEnv> {
        let mut env = ServeEnv {
            dir: dir.to_path_buf(),
            pool,
            corpus_fnv,
            daemon: None,
            warm,
            warm_jobs: Vec::new(),
            picks,
            next_key: 0,
            references: HashMap::new(),
            reference_ms: Vec::new(),
            completed: AtomicU64::new(0),
            checkpoint_rss_kib: AtomicU64::new(0),
            violations: Vec::new(),
        };
        env.daemon = Some(Daemon::start(&env.socket(), &env.store())?);
        if warm {
            env.warm_jobs = (0..WARM_JOBS).map(|_| env.next_job("w")).collect();
            env.populate()?;
            env.restart()?;
        }
        Ok(env)
    }

    fn socket(&self) -> PathBuf {
        self.dir.join("s")
    }

    fn store(&self) -> PathBuf {
        self.dir.join("store")
    }

    pub fn daemon(&mut self) -> io::Result<&mut Daemon> {
        self.daemon
            .as_mut()
            .ok_or_else(|| io::Error::other("daemon already stopped"))
    }

    /// Draws the next job: `JOB_LOGS` distinct pool logs under fresh labels.
    fn next_job(&mut self, prefix: &str) -> Job {
        let key = self.next_key;
        self.next_key += 1;
        let mut chosen: Vec<usize> = Vec::with_capacity(JOB_LOGS);
        while chosen.len() < JOB_LOGS.min(self.pool.len()) {
            let pick = self.picks.below(self.pool.len() as u64) as usize;
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        let logs = chosen
            .into_iter()
            .enumerate()
            .map(|(slot, pick)| LogTruth {
                label: format!("{prefix}{key:05}-{slot}"),
                ..self.pool[pick].clone()
            })
            .collect();
        Job { key, logs }
    }

    /// Submits every stored job at once and waits for all of them: the
    /// daemon analyses them cold and commits each to the store.
    fn populate(&mut self) -> io::Result<()> {
        let jobs = self.warm_jobs.clone();
        let mut client = self.daemon()?.connect()?;
        let mut ids = Vec::with_capacity(jobs.len());
        for job in &jobs {
            ids.push(layers::submit(&mut client, &job.logs).map_err(io::Error::other)?);
        }
        for id in ids {
            layers::settle(&mut client, id).map_err(io::Error::other)?;
        }
        Ok(())
    }

    /// Stops the daemon gracefully and starts a new one on the same store.
    pub fn restart(&mut self) -> io::Result<()> {
        if let Some(daemon) = self.daemon.take() {
            daemon.stop()?;
        }
        self.daemon = Some(Daemon::start(&self.socket(), &self.store())?);
        Ok(())
    }

    pub fn stop(&mut self) -> io::Result<()> {
        match self.daemon.take() {
            Some(daemon) => daemon.stop(),
            None => Ok(()),
        }
    }

    /// The per-client job plans of one window: cold, one client working
    /// through never-seen jobs; warm, two clients cycling through their
    /// halves of the stored jobs.
    fn plans(&mut self, seconds: f64) -> Vec<(Vec<Job>, bool)> {
        if self.warm {
            let clients = 2;
            (0..clients)
                .map(|client| {
                    let jobs = self
                        .warm_jobs
                        .iter()
                        .skip(client)
                        .step_by(clients)
                        .cloned()
                        .collect();
                    (jobs, true)
                })
                .collect()
        } else {
            let planned = (seconds * COLD_JOBS_PER_SECOND).ceil() as usize + 1;
            vec![((0..planned).map(|_| self.next_job("c")).collect(), false)]
        }
    }

    /// Closed-loop clients for `seconds`: submit → settle → fetch per job.
    /// Reports are verified after the window, against in-process references.
    pub fn run_window(&mut self, seconds: f64, tracer: Tracer) -> io::Result<Window> {
        let plans = self.plans(seconds);
        let checkpoint = if self.warm {
            WARM_RSS_CHECKPOINT
        } else {
            COLD_RSS_CHECKPOINT
        };
        let daemon = self.daemon()?;
        let pid = daemon.pid();
        let mut clients = Vec::with_capacity(plans.len());
        for _ in &plans {
            clients.push((daemon.connect()?, tracer.fork()));
        }
        let (completed, checkpoint_rss) = (&self.completed, &self.checkpoint_rss_kib);
        let rss_before = sys::rss_kib(pid)?;
        let cpu_before = sys::cpu_seconds(pid)?;
        let start = Instant::now();

        let results: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .zip(clients)
                .enumerate()
                .map(|(index, ((jobs, cycle), (mut client, tracer)))| {
                    scope.spawn(move || {
                        let mut run = ClientRun::new(tracer);
                        let mut consecutive_failures = 0;
                        for turn in 0.. {
                            if (!cycle && turn >= jobs.len())
                                || start.elapsed().as_secs_f64() >= seconds
                            {
                                break;
                            }
                            // Units are numbered per client; the client
                            // index rides in the top bits.
                            let unit = ((index as u64) << 32) | turn as u64;
                            match run.one_job(&mut client, &jobs[turn % jobs.len()], unit) {
                                Ok(()) => {
                                    consecutive_failures = 0;
                                    if completed.fetch_add(1, Ordering::Relaxed) + 1 == checkpoint {
                                        checkpoint_rss.store(
                                            sys::peak_rss_kib(pid).unwrap_or(0),
                                            Ordering::Relaxed,
                                        );
                                    }
                                }
                                Err(failure) => {
                                    run.failures.push(failure);
                                    consecutive_failures += 1;
                                    // A dead daemon fails every request at
                                    // once; do not spin on it to the deadline.
                                    if consecutive_failures >= 3 {
                                        break;
                                    }
                                }
                            }
                        }
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client threads do not panic"))
                .collect()
        });

        let mut window = Window::new(tracer);
        window.wall_s = start.elapsed().as_secs_f64();
        window.cpu_s = sys::cpu_seconds(pid)? - cpu_before;
        window.rss_growth_kib = sys::rss_kib(pid)? as i64 - rss_before as i64;
        window.peak_rss_kib = match checkpoint_rss.load(Ordering::Relaxed) {
            0 => sys::peak_rss_kib(pid)?, // the checkpoint is still ahead
            kib => kib,
        };
        let mut journal = Vec::new();
        for run in results {
            window.attempted += run.attempted;
            window.restarts += run.restarts;
            for failure in run.failures {
                window.fail(failure);
            }
            let offset = window.tracer.spans.len();
            journal.extend(run.journal.into_iter().map(|mut entry| {
                entry.submit = entry.submit.map(|span| span + offset);
                entry.settle = entry.settle.map(|span| span + offset);
                entry
            }));
            window.tracer.absorb(run.tracer);
            // Verification, outside the measured interval: every served
            // report against the in-process report over the same files.
            for delivery in run.deliveries {
                match self.reference(delivery.key, &plans) {
                    Ok(reference) if *reference == delivery.text => {
                        window.samples_ms.push(delivery.ms);
                        window.entries += delivery.entries;
                    }
                    Ok(_) => window.fail(format!(
                        "job key {}: served report differs from the in-process one",
                        delivery.key
                    )),
                    Err(error) => window.fail(format!(
                        "job key {}: reference failed: {error}",
                        delivery.key
                    )),
                }
            }
        }
        if window.tracer.on() {
            self.journal_spans(&mut window, &journal)?;
        }
        Ok(window)
    }

    /// The in-process `full_report` over a job's files, computed once per
    /// job key; its Table-1 counts are checked against the generator's.
    fn reference(&mut self, key: usize, plans: &[(Vec<Job>, bool)]) -> io::Result<&String> {
        if !self.references.contains_key(&key) {
            let job = plans
                .iter()
                .flat_map(|(jobs, _)| jobs)
                .find(|job| job.key == key)
                .ok_or_else(|| io::Error::other("delivery for an unplanned job"))?;
            let began = Instant::now();
            let pass = layers::analyze_and_render(&job.logs)?;
            self.reference_ms.push(began.elapsed().as_secs_f64() * 1e3);
            self.violations
                .extend(layers::oracle_mismatches(&job.logs, &pass.counts()));
            self.references.insert(key, pass.report);
        }
        Ok(&self.references[&key])
    }

    /// Turns the daemon's journal stamps for this window's jobs into spans
    /// under each job's settle span: `serve.queue_wait` (job-accepted →
    /// worker-start) and `serve.worker_run` (worker-start →
    /// partition-complete) per partition. The journal clock (whole
    /// milliseconds since the daemon's start) is aligned on the first job
    /// seen: its `job-accepted` stamp is taken to coincide with the start of
    /// its client-side submit span.
    fn journal_spans(&mut self, window: &mut Window, journal: &[JournalEntry]) -> io::Result<()> {
        let lines = self
            .daemon()?
            .connect()?
            .events(0)
            .map_err(io::Error::other)?;
        let by_job: HashMap<u64, &JournalEntry> = journal
            .iter()
            .map(|entry| (entry.daemon_job, entry))
            .collect();
        let mut accepted: HashMap<u64, u64> = HashMap::new();
        let mut started: HashMap<(u64, u64), u64> = HashMap::new();
        let mut offset_ns: Option<i64> = None;
        for line in &lines {
            let Ok(record) = sparqlog::obs::EventRecord::parse(line) else {
                continue;
            };
            let (Some(job), Some(t_ms)) = (record.u64("job"), record.timestamp_ms()) else {
                continue;
            };
            let Some(entry) = by_job.get(&job) else {
                continue;
            };
            match record.event() {
                "job-accepted" => {
                    accepted.insert(job, t_ms);
                    if let (None, Some(submit)) = (offset_ns, entry.submit) {
                        offset_ns = Some(
                            window.tracer.spans[submit].start_ns as i64 - t_ms as i64 * 1_000_000,
                        );
                    }
                }
                "worker-start" => {
                    if let Some(partition) = record.u64("partition") {
                        started.entry((job, partition)).or_insert(t_ms);
                    }
                }
                "partition-complete" => {
                    let (Some(partition), Some(offset)) = (record.u64("partition"), offset_ns)
                    else {
                        continue;
                    };
                    let (Some(&accepted_ms), Some(&started_ms)) =
                        (accepted.get(&job), started.get(&(job, partition)))
                    else {
                        continue;
                    };
                    let at = |ms: u64| (ms as i64 * 1_000_000 + offset).max(0) as u64;
                    window.tracer.record(
                        "serve.queue_wait",
                        entry.unit,
                        entry.settle,
                        at(accepted_ms),
                        at(started_ms),
                    );
                    window.tracer.record(
                        "serve.worker_run",
                        entry.unit,
                        entry.settle,
                        at(started_ms),
                        at(t_ms),
                    );
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// One job of `logs` copies of a one-entry log under fresh labels, for
    /// the floor probes. Returns what the client saw (submit → report in
    /// hand, poll quantum included) and what the daemon's journal says
    /// (job-accepted → job-complete, whole milliseconds, no poll in it).
    pub fn floor_job(&mut self, file: &LogTruth, logs: usize) -> io::Result<(f64, f64)> {
        let key = self.next_key;
        self.next_key += 1;
        let logs: Vec<LogTruth> = (0..logs)
            .map(|slot| LogTruth {
                label: format!("f{key:05}-{slot}"),
                ..file.clone()
            })
            .collect();
        let mut client = self.daemon()?.connect()?;
        let began = Instant::now();
        let id = layers::submit(&mut client, &logs).map_err(io::Error::other)?;
        layers::settle(&mut client, id).map_err(io::Error::other)?;
        layers::fetch(&mut client, id).map_err(io::Error::other)?;
        let client_ms = began.elapsed().as_secs_f64() * 1e3;
        let stamp = |records: &[sparqlog::obs::EventRecord], event: &str| {
            records
                .iter()
                .find(|record| record.event() == event)
                .and_then(sparqlog::obs::EventRecord::timestamp_ms)
        };
        let records: Vec<_> = client
            .events(id)
            .map_err(io::Error::other)?
            .iter()
            .filter_map(|line| sparqlog::obs::EventRecord::parse(line).ok())
            .collect();
        match (
            stamp(&records, "job-accepted"),
            stamp(&records, "job-complete"),
        ) {
            (Some(accepted), Some(complete)) => {
                Ok((client_ms, complete.saturating_sub(accepted) as f64))
            }
            _ => Err(io::Error::other(format!(
                "job {id}: no accepted/complete pair in the journal"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_specs_name_four_workloads_once_each() {
        let mut names: Vec<&str> = SPECS.iter().map(|spec| spec.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(LOG_SHARES.iter().sum::<u64>(), 100);
        assert!(spec("serve-warm").is_some() && spec("nope").is_none());
        assert!(SPECS.iter().all(|spec| spec.why.len() <= 200));
    }
}
