//! A blocking client for the analysis daemon: connects over TCP or a Unix
//! socket, exchanges [`crate::protocol`] frames strictly
//! request-by-response, and offers typed helpers plus a blocking
//! [`Client::wait_settled`] for batch-style callers.

use crate::protocol::{self, JobReport, JobStatus, Request, Response};
use crate::server::{ServeAddr, Socket};
use sparqlog_core::analysis::Population;
use sparqlog_core::RecoveryPolicy;
use sparqlog_obs::MetricsSnapshot;
use sparqlog_shard::codec::{write_stream_header, FrameReader, StreamError};
use std::io;
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure.
    Io(io::Error),
    /// The server's response stream was malformed.
    Stream(StreamError),
    /// The server hung up (it stopped, or the stream broke).
    Closed,
    /// The server answered with an error or a rejection.
    Server(String),
    /// The server answered with a response of the wrong kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(error) => write!(f, "socket error: {error}"),
            ClientError::Stream(error) => write!(f, "malformed response stream: {error}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(error: io::Error) -> ClientError {
        ClientError::Io(error)
    }
}

impl From<StreamError> for ClientError {
    fn from(error: StreamError) -> ClientError {
        ClientError::Stream(error)
    }
}

/// Bounded-retry policy for [`Client::connect_with_retry`]: how many
/// times to retry a connection that fails with a transient error
/// (refused, reset, socket file not there yet) and how long to back off
/// between attempts (exponential, capped).
///
/// The intended use is riding out a daemon restart: a client submitted
/// while `sparqlog-serve` is down reconnects once it is back, and because
/// the daemon persists completed jobs to its snapshot store, resubmitting
/// the same logs is idempotent — the work merges from the store instead
/// of re-running.
#[derive(Debug, Clone)]
pub struct ConnectRetry {
    /// Additional attempts after the first failure (0 = fail fast, same
    /// as [`Client::connect`]).
    pub attempts: u32,
    /// Delay before the first retry (doubles per attempt).
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ConnectRetry {
    fn default() -> ConnectRetry {
        ConnectRetry {
            attempts: 5,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl ConnectRetry {
    /// Whether `error` is worth retrying: the kinds a daemon restart (or a
    /// not-yet-bound listener) produces, plus a server that accepted the
    /// socket but hung up before the header exchange finished.
    fn transient(error: &ClientError) -> bool {
        match error {
            ClientError::Io(error) => matches!(
                error.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::NotFound
                    | io::ErrorKind::AddrNotAvailable
            ),
            ClientError::Closed => true,
            _ => false,
        }
    }
}

/// The delay before retry `attempt` (1-based): `first` doubled per attempt,
/// capped at `cap`. Client reconnects and worker restarts both back off by
/// it.
pub(crate) fn backoff_delay(first: Duration, cap: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    first.saturating_mul(factor).min(cap)
}

/// A connected daemon client. Requests are answered in order, one
/// response per request, over one socket.
#[derive(Debug)]
pub struct Client {
    frames: FrameReader<Socket>,
}

impl Client {
    /// Connects and exchanges stream headers (both directions carry the
    /// shared `SQSN` magic + version).
    pub fn connect(addr: &ServeAddr) -> Result<Client, ClientError> {
        let mut frames = FrameReader::new(Socket::connect(addr)?);
        write_stream_header(frames.get_mut())?;
        frames.read_header()?;
        Ok(Client { frames })
    }

    /// Like [`Client::connect`], but retries transient connection failures
    /// per `retry` — the way to submit work across a daemon restart.
    pub fn connect_with_retry(
        addr: &ServeAddr,
        retry: &ConnectRetry,
    ) -> Result<Client, ClientError> {
        let mut attempt = 0u32;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(error) if ConnectRetry::transient(&error) && attempt < retry.attempts => {
                    attempt += 1;
                    std::thread::sleep(backoff_delay(retry.backoff, retry.backoff_cap, attempt));
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        protocol::write_request(self.frames.get_mut(), request)?;
        match protocol::read_response(&mut self.frames)? {
            Some(response) => Ok(response),
            None => Err(ClientError::Closed),
        }
    }

    /// Liveness check; returns `(draining, jobs_accepted)`.
    pub fn ping(&mut self) -> Result<(bool, u64), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { draining, jobs } => Ok((draining, jobs)),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits an analysis job over `(label, path)` pairs (paths resolved
    /// on the server). `recovery` controls how malformed entries are
    /// handled (`Auto` defers to the *server's* `SPARQLOG_RECOVERY`
    /// environment). Returns `(job_id, partitions)`.
    pub fn submit(
        &mut self,
        population: Population,
        recovery: RecoveryPolicy,
        logs: Vec<(String, String)>,
    ) -> Result<(u64, u64), ClientError> {
        let request = Request::Submit {
            population,
            recovery,
            logs,
        };
        match self.request(&request)? {
            Response::Accepted { job, partitions } => Ok((job, partitions)),
            Response::Rejected { message } | Response::Error { message } => {
                Err(ClientError::Server(message))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Sends a request that is answered with a job's status.
    fn request_status(&mut self, request: &Request) -> Result<JobStatus, ClientError> {
        match self.request(request)? {
            Response::Status(status) => Ok(status),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads one job's progress.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        self.request_status(&Request::Status { job })
    }

    /// Fetches a job's report — incremental while partitions are still
    /// running, final (and byte-identical to the in-process engine's) once
    /// `complete` is set.
    pub fn report(&mut self, job: u64, full: bool) -> Result<JobReport, ClientError> {
        match self.request(&Request::Report { job, full })? {
            Response::Report(report) => Ok(report),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain (refuse new jobs, finish in-flight ones).
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Drain)? {
            Response::Pong { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the structured event log (`job` 0 = all jobs).
    pub fn events(&mut self, job: u64) -> Result<Vec<String>, ClientError> {
        match self.request(&Request::Events { job })? {
            Response::Events { lines } => Ok(lines),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's merged metric snapshot (pipeline, cache,
    /// shard, persist, and serve layers) plus its text exposition. Both
    /// are empty when metrics are disabled on the server.
    pub fn metrics(&mut self) -> Result<(MetricsSnapshot, String), ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { snapshot, text } => Ok((snapshot, text)),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until the job settles (completes or fails) or `timeout`
    /// elapses; returns the job's status at that moment either way. One
    /// [`Request::Wait`]: the server answers the instant the job settles.
    /// From a daemon with a store, `Complete` means the job's completion
    /// commit has already been attempted.
    pub fn wait_settled(&mut self, job: u64, timeout: Duration) -> Result<JobStatus, ClientError> {
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        self.request_status(&Request::Wait { job, timeout_ms })
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Unexpected(format!("{response:?}"))
}
