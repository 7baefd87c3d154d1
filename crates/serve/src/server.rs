//! The analysis daemon: a TCP or Unix-socket listener accepting concurrent
//! client sessions, each a length-prefixed request/response stream
//! ([`crate::protocol`]). Submitted jobs fan out through the
//! [`Supervisor`]'s worker pool; every
//! session answers from the same merged [`Jobs`] state, so two clients
//! asking for the same complete job get byte-identical reports.
//!
//! # Threading model
//!
//! No async runtime: one accept loop (nonblocking, polling the drain/stop
//! flags and [`crate::signal`] every ~20 ms), two std threads per session
//! (a reader that decodes requests and a writer fed by a **bounded**
//! outbox channel), and the supervisor's fixed runner pool. A slow
//! consumer fills its own outbox and then — per
//! [`SlowConsumerPolicy`] — either blocks only its own reader thread
//! (other sessions unaffected) or is shed: the connection closes and an
//! `outbox-shed` event is logged.
//!
//! # Shutdown
//!
//! A `Drain` request (or [`ServerHandle::drain`]) only flips the draining
//! flag: new `Submit`s are rejected, everything else keeps serving.
//! [`ServerHandle::stop`] or SIGTERM/SIGINT additionally stops the accept
//! loop, waits for in-flight jobs to settle, closes every session, and
//! returns from [`Server::run`].

use crate::events::{quoted, EventLog};
use crate::job::{load_logs, Jobs};
use crate::protocol::{self, Request, Response};
use crate::signal;
use crate::supervisor::{Supervisor, SupervisorConfig};
use sparqlog_core::cache::CacheStats;
use sparqlog_obs::{self as obs, EventRecord};
use sparqlog_persist::SnapshotStore;
use sparqlog_shard::codec::{write_stream_header, FrameReader};
use sparqlog_shard::LogSpec;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What to do with a session whose outbox is full (the client is not
/// reading responses fast enough).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowConsumerPolicy {
    /// Block that session's reader thread until the writer catches up.
    /// Only the slow session stalls; others keep serving.
    Block,
    /// Shed the session: log an `outbox-shed` event and close the
    /// connection.
    Shed,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The worker pool: how to launch workers, how many run at once, their
    /// heartbeat and their restart policy.
    pub supervisor: SupervisorConfig,
    /// Bounded per-session outbox capacity, in response frames.
    pub outbox_frames: usize,
    /// What to do when a session's outbox fills.
    pub slow_policy: SlowConsumerPolicy,
    /// Artificial delay before each response write (test knob for
    /// exercising the outbox backpressure path; zero in production).
    pub writer_pause: Duration,
    /// How long a graceful stop waits for in-flight jobs to settle.
    pub drain_timeout: Duration,
    /// Mirror the event log to this file (the CI fault jobs upload it).
    pub event_log_path: Option<PathBuf>,
    /// Persist completed jobs to a crash-safe snapshot store at this path
    /// ([`sparqlog_persist::SnapshotStore`]): settled jobs warm-start
    /// after a restart, and resubmitted logs merge from the store without
    /// spawning workers.
    pub store_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            supervisor: SupervisorConfig::default(),
            outbox_frames: 64,
            slow_policy: SlowConsumerPolicy::Block,
            writer_pause: Duration::ZERO,
            drain_timeout: Duration::from_secs(60),
            event_log_path: None,
            store_path: None,
        }
    }
}

/// Where the daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A TCP address, e.g. `127.0.0.1:7878` (`127.0.0.1:0` binds an
    /// ephemeral port — read it back with [`Server::local_addr`]).
    Tcp(String),
    /// A Unix-domain socket path (unix targets only).
    Unix(PathBuf),
}

/// One duplex client connection, abstracted over TCP and Unix sockets.
trait SessionStream: Read + Write + Send {
    /// A second handle onto the same socket (for the writer thread).
    fn split(&self) -> io::Result<Box<dyn SessionStream>>;
    /// Sets the socket read timeout.
    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Shuts the socket down in both directions, unblocking any peer
    /// thread stuck in a read or write.
    fn close(&self) -> io::Result<()>;
}

impl SessionStream for TcpStream {
    fn split(&self) -> io::Result<Box<dyn SessionStream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn close(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Both)
    }
}

#[cfg(unix)]
impl SessionStream for std::os::unix::net::UnixStream {
    fn split(&self) -> io::Result<Box<dyn SessionStream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn close(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Both)
    }
}

/// The bound listener, abstracted over address families.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

impl Listener {
    /// Accepts one pending connection, or `None` if none is waiting
    /// (the listener is nonblocking).
    fn accept(&self) -> io::Result<Option<Box<dyn SessionStream>>> {
        match self {
            Listener::Tcp(listener) => match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Ok(Some(Box::new(stream)))
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(error) => Err(error),
            },
            #[cfg(unix)]
            Listener::Unix(listener, _) => match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Ok(Some(Box::new(stream)))
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(error) => Err(error),
            },
        }
    }

    fn local_addr(&self) -> io::Result<ServeAddr> {
        match self {
            Listener::Tcp(listener) => Ok(ServeAddr::Tcp(listener.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(ServeAddr::Unix(path.clone())),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// State shared between the accept loop, sessions, and handles.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    jobs: Arc<Jobs>,
    events: Arc<EventLog>,
    supervisor: Supervisor,
    store: Option<Arc<Mutex<SnapshotStore>>>,
    draining: AtomicBool,
    stopping: AtomicBool,
    closing: AtomicBool,
    sessions: AtomicU64,
}

impl Shared {
    fn begin_drain(&self, reason: &str) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.events
                .emit(format!("event=drain reason={}", quoted(reason)));
        }
    }
}

/// A control handle onto a running server, usable from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Starts draining: new `Submit`s are rejected; status, report, and
    /// event queries keep serving and the accept loop keeps running.
    pub fn drain(&self) {
        self.shared.begin_drain("handle");
    }

    /// Requests a graceful stop: drain, wait for in-flight jobs to settle,
    /// close sessions, return from [`Server::run`].
    pub fn stop(&self) {
        self.shared.begin_drain("shutdown");
        self.shared.stopping.store(true, Ordering::Release);
    }

    /// Whether the server is draining.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// The server's job table (for in-process observers and tests).
    pub fn jobs(&self) -> Arc<Jobs> {
        Arc::clone(&self.shared.jobs)
    }

    /// The server's event log (for in-process observers and tests).
    pub fn events(&self) -> Arc<EventLog> {
        Arc::clone(&self.shared.events)
    }
}

/// A bound (but not yet running) analysis daemon.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and starts the supervisor's worker pool. The
    /// accept loop does not run until [`Server::run`].
    pub fn bind(config: ServeConfig, addr: &ServeAddr) -> io::Result<Server> {
        let listener = match addr {
            ServeAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec.as_str())?;
                listener.set_nonblocking(true)?;
                Listener::Tcp(listener)
            }
            ServeAddr::Unix(path) => {
                #[cfg(unix)]
                {
                    // A stale socket file from a crashed predecessor would
                    // make bind fail with AddrInUse; replace it.
                    let _ = std::fs::remove_file(path);
                    let listener = std::os::unix::net::UnixListener::bind(path)?;
                    listener.set_nonblocking(true)?;
                    Listener::Unix(listener, path.clone())
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err(io::Error::other("unix sockets unsupported on this target"));
                }
            }
        };
        let events = Arc::new(match &config.event_log_path {
            Some(path) => EventLog::with_file(path)?,
            None => EventLog::new(),
        });
        let jobs = Arc::new(Jobs::default());
        let store = match &config.store_path {
            Some(path) => {
                let (store, report) = SnapshotStore::open(path)?;
                // The recovery outcome as typed fields (reason is the
                // stable one-token key) — consumers match on fields, not
                // on the report's prose.
                events.emit_record(
                    EventRecord::new("store-open")
                        .with("path", path.display())
                        .with("reason", report.reason.key())
                        .with("kept_bytes", report.kept_bytes)
                        .with("dropped_bytes", report.dropped_bytes())
                        .with("dropped_records", report.dropped_records)
                        .with("commits", report.commits)
                        .with("snapshots", report.snapshots)
                        .with("jobs", report.jobs)
                        .with("report", report.to_string()),
                );
                Some(Arc::new(Mutex::new(store)))
            }
            None => None,
        };
        if let Some(store) = &store {
            warm_start(store, &jobs, &events);
        }
        let supervisor = Supervisor::start(
            config.supervisor.clone(),
            Arc::clone(&jobs),
            Arc::clone(&events),
            store.clone(),
        );
        let shared = Arc::new(Shared {
            config,
            jobs,
            events,
            supervisor,
            store,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            sessions: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (with the ephemeral port resolved for
    /// `127.0.0.1:0`-style binds).
    pub fn local_addr(&self) -> io::Result<ServeAddr> {
        self.listener.local_addr()
    }

    /// A control handle for draining/stopping from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until [`ServerHandle::stop`] or
    /// SIGTERM/SIGINT, then drains gracefully: waits for in-flight jobs to
    /// settle (bounded by `drain_timeout`), closes every session, and
    /// returns.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        shared.events.emit("event=serve-start");
        loop {
            if signal::termination_requested() {
                shared.begin_drain("signal");
                shared.stopping.store(true, Ordering::Release);
            }
            if shared.stopping.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok(Some(stream)) => {
                    let id = shared.sessions.fetch_add(1, Ordering::AcqRel) + 1;
                    shared
                        .events
                        .emit(format!("event=session-open session={id}"));
                    obs::global().counter("serve_sessions_total").incr();
                    obs::global().gauge("serve_sessions_open").add(1);
                    let ctx = Arc::clone(&shared);
                    reap_finished(&mut sessions);
                    sessions.push(std::thread::spawn(move || session(stream, id, &ctx)));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        shared.begin_drain("shutdown");
        let settled = shared.jobs.wait_all_settled(shared.config.drain_timeout);
        shared.supervisor.wait_idle(shared.config.drain_timeout);
        // Flush anything still staged in the store (a no-op after normal
        // per-job commits, but it catches work settled mid-drain).
        if let Some(store) = &shared.store {
            let mut guard = store.lock().expect("snapshot store");
            match guard.commit() {
                Ok(seq) => shared.events.emit(format!(
                    "event=store-flush seq={seq} snapshots={}",
                    guard.snapshots()
                )),
                Err(error) => shared.events.emit(format!(
                    "event=store-error error={}",
                    quoted(&error.to_string())
                )),
            }
        }
        shared
            .events
            .emit(format!("event=serve-stop settled={settled}"));
        shared.closing.store(true, Ordering::Release);
        for session in sessions {
            let _ = session.join();
        }
        Ok(())
    }
}

/// Re-registers every job manifest the store recovered as a settled job,
/// each partition merged from its persisted snapshot and the job then
/// released to keys only, like any job whose completion commit succeeded —
/// a restarted daemon serves byte-identical reports for committed jobs
/// without re-analysing a single log.
pub(crate) fn warm_start(store: &Mutex<SnapshotStore>, jobs: &Jobs, events: &EventLog) {
    let manifests = store.lock().expect("snapshot store").jobs().to_vec();
    let mut restored = 0u64;
    for manifest in manifests {
        // A manifest commits in the same fsync as (or after) its
        // snapshots and recovery truncates only suffixes, so the keys
        // must all resolve; guard against a damaged store anyway.
        let keys: Vec<u128> = manifest.logs.iter().map(|log| log.key).collect();
        let logs = match load_logs(store, &keys) {
            Ok(logs) => logs,
            Err(error) => {
                let reason = match error.kind() {
                    io::ErrorKind::NotFound => "missing-snapshot",
                    _ => "unreadable-snapshot",
                };
                events.emit(format!(
                    "event=warm-skip reason={reason} error={}",
                    quoted(&error.to_string())
                ));
                continue;
            }
        };
        let specs: Vec<LogSpec> = manifest
            .logs
            .iter()
            .map(|log| LogSpec::new(log.label.clone(), PathBuf::from(&log.path)))
            .collect();
        let job = jobs.create(manifest.population, manifest.recovery, specs);
        jobs.with(job, |state| {
            state.keys = keys.into_iter().map(Some).collect();
            for (partition, log) in logs.into_iter().enumerate() {
                state.merge_partition(partition, Arc::new(log), CacheStats::default(), 0);
            }
            state.release_logs();
        });
        events.emit(format!(
            "event=job-warm-start job={job} partitions={}",
            manifest.logs.len()
        ));
        restored += 1;
    }
    if restored > 0 {
        events.emit(format!("event=warm-start jobs={restored}"));
    }
}

/// Joins the sessions whose threads have exited, so each closed
/// connection's thread is released at the next accept rather than at
/// shutdown.
fn reap_finished(sessions: &mut Vec<JoinHandle<()>>) {
    let mut index = 0;
    while index < sessions.len() {
        if sessions[index].is_finished() {
            let _ = sessions.swap_remove(index).join();
        } else {
            index += 1;
        }
    }
}

/// A socket reader that absorbs read timeouts (the 100 ms poll used so
/// sessions notice server shutdown) and converts the closing flag into a
/// clean end-of-stream.
struct PatientReader {
    inner: Box<dyn SessionStream>,
    ctx: Arc<Shared>,
}

impl Read for PatientReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.ctx.closing.load(Ordering::Acquire) {
                return Ok(0);
            }
            match self.inner.read(buf) {
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                other => return other,
            }
        }
    }
}

fn writer_loop(stream: Box<dyn SessionStream>, outbox: Receiver<Response>, pause: Duration) {
    let mut out = BufWriter::new(stream);
    if write_stream_header(&mut out).is_err() || out.flush().is_err() {
        return;
    }
    while let Ok(response) = outbox.recv() {
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        if protocol::write_response(&mut out, &response).is_err() {
            return;
        }
    }
    let _ = out.flush();
}

/// Enqueues one response per the slow-consumer policy. Returns `false`
/// when the session must close (shed, writer gone, or server closing).
fn enqueue(
    ctx: &Shared,
    session_id: u64,
    outbox: &SyncSender<Response>,
    response: Response,
) -> bool {
    match ctx.config.slow_policy {
        SlowConsumerPolicy::Block => {
            let mut pending = response;
            loop {
                if ctx.closing.load(Ordering::Acquire) {
                    return false;
                }
                match outbox.try_send(pending) {
                    Ok(()) => return true,
                    Err(TrySendError::Full(back)) => {
                        pending = back;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(TrySendError::Disconnected(_)) => return false,
                }
            }
        }
        SlowConsumerPolicy::Shed => match outbox.try_send(response) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                ctx.events.emit(format!(
                    "event=outbox-shed session={session_id} capacity={}",
                    ctx.config.outbox_frames
                ));
                obs::global().counter("serve_outbox_shed_total").incr();
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        },
    }
}

fn session(stream: Box<dyn SessionStream>, id: u64, ctx: &Arc<Shared>) {
    let _ = stream.set_stream_read_timeout(Some(Duration::from_millis(100)));
    let (Ok(write_half), Ok(control)) = (stream.split(), stream.split()) else {
        return;
    };
    let (outbox, inbox) = sync_channel::<Response>(ctx.config.outbox_frames.max(1));
    let pause = ctx.config.writer_pause;
    let writer = std::thread::spawn(move || writer_loop(write_half, inbox, pause));

    let mut forced = false;
    let mut frames = FrameReader::new(PatientReader {
        inner: stream,
        ctx: Arc::clone(ctx),
    });
    if frames.read_header().is_ok() {
        while let Ok(Some(request)) = protocol::read_request(&mut frames) {
            let response = answer(ctx, &request);
            if !enqueue(ctx, id, &outbox, response) {
                forced = true;
                break;
            }
        }
    } else {
        forced = true;
    }

    if forced || ctx.closing.load(Ordering::Acquire) {
        // Unblock a writer stuck mid-write before joining it.
        let _ = control.close();
    }
    drop(outbox);
    let _ = writer.join();
    let _ = control.close();
    obs::global().gauge("serve_sessions_open").add(-1);
    ctx.events.emit(format!("event=session-close session={id}"));
}

fn unknown_job(job: u64) -> Response {
    Response::Error {
        message: format!("unknown job {job}"),
    }
}

/// Answers a `Report`: taken under the job-table lock, loaded (for a job
/// that released its logs to the store) and rendered after it. A stored log
/// that fails to load is a `store-error` and an error answer; the daemon
/// keeps serving.
fn report(ctx: &Shared, job: u64, full: bool) -> Response {
    let Some(pending) = ctx.jobs.with(job, |state| state.pending_report(full)) else {
        return unknown_job(job);
    };
    match pending.render(ctx.store.as_deref()) {
        Ok(report) => Response::Report(report),
        Err(error) => {
            let message = format!("job {job}: {error}");
            ctx.events.emit(format!(
                "event=store-error job={job} error={}",
                quoted(&message)
            ));
            Response::Error { message }
        }
    }
}

/// Computes the one response a request maps to.
fn answer(ctx: &Shared, request: &Request) -> Response {
    obs::global().counter("serve_requests_total").incr();
    match request {
        Request::Ping => Response::Pong {
            draining: ctx.draining.load(Ordering::Acquire),
            jobs: ctx.jobs.accepted(),
        },
        Request::Submit {
            population,
            recovery,
            logs,
        } => {
            if ctx.draining.load(Ordering::Acquire) {
                return Response::Rejected {
                    message: "server is draining; new jobs are refused".to_string(),
                };
            }
            if logs.is_empty() {
                return Response::Error {
                    message: "submit requires at least one log".to_string(),
                };
            }
            let specs = logs
                .iter()
                .map(|(label, path)| LogSpec::new(label.clone(), path.clone()))
                .collect();
            let (job, partitions) = ctx.supervisor.submit(*population, *recovery, specs);
            Response::Accepted { job, partitions }
        }
        Request::Status { job } => ctx
            .jobs
            .with(*job, |state| state.status())
            .map_or_else(|| unknown_job(*job), Response::Status),
        Request::Wait { job, timeout_ms } => {
            obs::global().counter("serve_wait_requests_total").incr();
            // Blocks this session's reader thread only; `closing` cuts the
            // wait short so a stopping daemon can join the session.
            ctx.jobs
                .wait_settled(*job, Duration::from_millis(*timeout_ms), &ctx.closing)
                .map_or_else(|| unknown_job(*job), Response::Status)
        }
        Request::Report { job, full } => report(ctx, *job, *full),
        Request::Drain => {
            ctx.begin_drain("client request");
            Response::Pong {
                draining: true,
                jobs: ctx.jobs.accepted(),
            }
        }
        Request::Events { job } => Response::Events {
            lines: if *job == 0 {
                ctx.events.snapshot()
            } else {
                ctx.events.for_job(*job)
            },
        },
        Request::Metrics => {
            // One merged snapshot: this process's live metrics plus
            // everything absorbed from worker epilogue frames.
            let snapshot = obs::global().snapshot();
            let text = snapshot.render_text();
            Response::Metrics { snapshot, text }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use crate::protocol::JobReport;
    use sparqlog_core::corpus::{analyze_streams, FileLogReader, LogReader};
    use sparqlog_core::report::full_report;
    use sparqlog_core::{file_identity, PersistedLog, Population, RecoveryPolicy};
    use sparqlog_persist::{JobLog, JobRecord};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-serve-server-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Two logs on disk (one with an unparsable line), their per-log
    /// results and keys, and the fused engine's report over both.
    fn analysed(dir: &std::path::Path) -> (Vec<LogSpec>, Vec<PersistedLog>, Vec<u128>, String) {
        let texts = [
            "SELECT ?x WHERE { ?x a <http://C> }\nASK { ?s ?p ?o }\nSELECT ?x WHERE { ?x a <http://C> }\n",
            "DESCRIBE <http://r>\nnot a query\nSELECT ?y WHERE { ?y <http://p> ?z . ?z <http://q> ?y }\n",
        ];
        let specs: Vec<LogSpec> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let spec = LogSpec::new(format!("log{i}"), dir.join(format!("{i}.log")));
                std::fs::write(&spec.path, text).unwrap();
                spec
            })
            .collect();
        let readers = specs
            .iter()
            .map(|spec| {
                let reader = FileLogReader::open(spec.label.clone(), &spec.path).unwrap();
                Box::new(reader) as Box<dyn LogReader>
            })
            .collect();
        let fused = analyze_streams(readers, Population::Unique).unwrap();
        let reference = full_report(&fused.corpus);
        let logs = fused
            .summaries
            .into_iter()
            .zip(fused.corpus.datasets)
            .map(|(summary, analysis)| PersistedLog { summary, analysis })
            .collect();
        let keys = specs
            .iter()
            .map(|spec| file_identity(Population::Unique, &spec.label, &spec.path).unwrap())
            .collect();
        (specs, logs, keys, reference)
    }

    /// A job over `specs` with every partition merged from `logs`.
    fn merged_job(specs: &[LogSpec], logs: &[PersistedLog], keys: &[u128]) -> (Jobs, u64) {
        let jobs = Jobs::default();
        let job = jobs.create(Population::Unique, RecoveryPolicy::Lenient, specs.to_vec());
        jobs.with(job, |state| {
            state.keys = keys.iter().copied().map(Some).collect();
            for (partition, log) in logs.iter().enumerate() {
                let log = Arc::new(log.clone());
                assert!(state.merge_partition(partition, log, CacheStats::default(), 0));
            }
        });
        (jobs, job)
    }

    fn render(jobs: &Jobs, job: u64, store: Option<&Mutex<SnapshotStore>>) -> JobReport {
        let pending = jobs.with(job, |state| state.pending_report(true)).unwrap();
        pending.render(store).unwrap()
    }

    #[test]
    fn a_report_is_the_same_from_slots_from_the_store_and_after_a_restart() {
        let dir = scratch("release");
        let (specs, logs, keys, reference) = analysed(&dir);
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        for (key, log) in keys.iter().zip(&logs) {
            assert!(store.record_snapshot(*key, log).unwrap());
        }
        let manifest = JobRecord {
            population: Population::Unique,
            recovery: RecoveryPolicy::Lenient,
            logs: specs
                .iter()
                .zip(&keys)
                .map(|(spec, key)| JobLog {
                    key: *key,
                    label: spec.label.clone(),
                    path: spec.path.to_string_lossy().into_owned(),
                })
                .collect(),
        };
        assert!(store.record_job(&manifest).unwrap());
        store.commit().unwrap();
        let store = Mutex::new(store);

        let (jobs, job) = merged_job(&specs, &logs, &keys);
        let from_slots = render(&jobs, job, Some(&store));
        assert!(from_slots.complete);
        assert!(from_slots.errors > 0, "the unparsable line is tallied");
        assert_eq!(from_slots.text, reference);
        assert!(jobs.with(job, JobState::release_logs).unwrap());
        assert!(!jobs.with(job, |state| state.holds_logs()).unwrap());
        let status = jobs.with(job, |state| state.status()).unwrap();
        assert_eq!((status.completed, status.total), (2, 2));
        assert_eq!(status.errors, from_slots.errors);
        assert_eq!(render(&jobs, job, Some(&store)), from_slots);

        // A restarted daemon: reopen the store and warm-start the job.
        drop(store);
        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert!(report.is_clean());
        let store = Mutex::new(store);
        let restored = Jobs::default();
        warm_start(&store, &restored, &EventLog::new());
        assert!(!restored.with(1, |state| state.holds_logs()).unwrap());
        assert_eq!(
            render(&restored, 1, Some(&store)),
            JobReport {
                job: 1,
                ..from_slots
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_without_a_store_reports_from_its_slots() {
        let dir = scratch("store-less");
        let (specs, logs, keys, reference) = analysed(&dir);
        let (jobs, job) = merged_job(&specs, &logs, &keys);
        let report = render(&jobs, job, None);
        assert!(report.complete);
        assert_eq!(report.text, reference);
        assert!(jobs.with(job, |state| state.holds_logs()).unwrap());
        // Released regardless, it has nowhere to load from: an error, not
        // a panic.
        jobs.with(job, JobState::release_logs);
        let pending = jobs.with(job, |state| state.pending_report(true)).unwrap();
        assert!(pending.render(None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_keeps_its_slots_until_every_log_is_filled_and_keyed() {
        let dir = scratch("refuse");
        let (specs, logs, keys, _) = analysed(&dir);
        let jobs = Jobs::default();
        let job = jobs.create(Population::Unique, RecoveryPolicy::Lenient, specs.clone());
        jobs.with(job, |state| {
            state.keys = vec![Some(keys[0]), None];
            state.merge_partition(0, Arc::new(logs[0].clone()), CacheStats::default(), 0);
            assert!(!state.release_logs(), "a slot is empty");
            state.merge_partition(1, Arc::new(logs[1].clone()), CacheStats::default(), 0);
            assert!(!state.release_logs(), "a log has no key");
            state.keys[1] = Some(keys[1]);
            state.failed = Some("boom".to_string());
            assert!(!state.release_logs(), "the job failed");
            assert!(state.holds_logs());
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_session_threads_are_joined_and_running_ones_kept() {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let running = std::thread::spawn(move || {
            let _ = parked.recv();
        });
        let exited: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| ())).collect();
        while !exited.iter().all(JoinHandle::is_finished) {
            std::thread::yield_now();
        }
        let mut sessions = exited;
        sessions.insert(1, running);
        reap_finished(&mut sessions);
        assert_eq!(sessions.len(), 1);
        assert!(!sessions[0].is_finished());
        release.send(()).unwrap();
        sessions.pop().unwrap().join().unwrap();
        reap_finished(&mut sessions);
        assert!(sessions.is_empty());
    }
}
