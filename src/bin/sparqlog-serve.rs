//! The analysis daemon CLI: listens on a TCP or Unix socket, accepts
//! log-analysis jobs from `sparqlog-client`, and fans them out to a pool
//! of supervised `sparqlog-shard-worker` processes.
//!
//! ```text
//! sparqlog-serve [--tcp ADDR | --unix PATH] [options]
//! ```
//!
//! * `--tcp ADDR`            listen on a TCP address (default `127.0.0.1:7878`;
//!   `127.0.0.1:0` picks an ephemeral port and prints it)
//! * `--unix PATH`           listen on a Unix-domain socket instead
//! * `--slots N`             concurrent worker processes (default: parallelism)
//! * `--workers N`           analysis threads per worker process (default 0:
//!   the cores divided among the workers running when it starts)
//! * `--stall-timeout-ms N`  kill workers silent this long (default: off);
//!   under it, workers heartbeat four times per timeout
//! * `--max-restarts N`      restarts per partition before the job fails
//! * `--backoff-ms N`        first restart backoff, doubling per attempt
//! * `--event-log PATH`      mirror the structured event log to a file
//! * `--store PATH`          persist completed jobs to a crash-safe snapshot
//!   store: settled jobs warm-start after a restart and resubmitted logs
//!   merge from the store without re-analysis
//!
//! Both `--store` and `--event-log` paths are validated writable at
//! startup (the daemon exits nonzero with a clear message rather than
//! failing the first commit hours in).
//!
//! Each client session is one thread that answers its requests in order; a
//! client that stops reading stalls only its own session.
//!
//! SIGTERM/SIGINT drain gracefully: in-flight jobs finish, new submits are
//! rejected, then the daemon exits.

use sparqlog::serve::{ServeAddr, ServeConfig, Server};
use sparqlog::shard::WorkerCommand;
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: sparqlog-serve [--tcp ADDR | --unix PATH] [--slots N] \
         [--workers N (0 = cores / running workers)] [--stall-timeout-ms N] [--max-restarts N] [--backoff-ms N] \
         [--event-log PATH] [--store PATH]"
    );
    std::process::exit(2);
}

/// The value after a flag; a missing or unparsable one is a usage error.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| usage())
}

/// Fails fast on an unusable `--store`/`--event-log` path: the file must
/// be creatable and appendable *now*, without truncating anything already
/// there. Returns the failure to report.
fn check_writable(what: &str, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!(
                "{what} {}: parent directory {} does not exist",
                path.display(),
                parent.display()
            ));
        }
    }
    if path.is_dir() {
        return Err(format!("{what} {}: is a directory", path.display()));
    }
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(_) => Ok(()),
        Err(error) => Err(format!("{what} {}: {error}", path.display())),
    }
}

fn main() {
    let mut addr = ServeAddr::Tcp("127.0.0.1:7878".to_string());
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => addr = ServeAddr::Tcp(value(&mut args)),
            "--unix" => addr = ServeAddr::Unix(value(&mut args)),
            "--slots" => config.supervisor.slots = value(&mut args),
            "--workers" => config.supervisor.worker_threads = value(&mut args),
            "--stall-timeout-ms" => {
                let ms = value(&mut args);
                config.supervisor.stall_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-restarts" => config.supervisor.max_restarts = value(&mut args),
            "--backoff-ms" => config.supervisor.backoff = Duration::from_millis(value(&mut args)),
            "--event-log" => config.event_log_path = Some(value(&mut args)),
            "--store" => config.store_path = Some(value(&mut args)),
            _ => usage(),
        }
    }

    for (what, path) in [
        ("--store", config.store_path.as_deref()),
        ("--event-log", config.event_log_path.as_deref()),
    ] {
        if let Some(path) = path {
            if let Err(message) = check_writable(what, path) {
                eprintln!("sparqlog-serve: {message}");
                std::process::exit(1);
            }
        }
    }

    config.supervisor.worker = match WorkerCommand::resolve_default() {
        Ok(worker) => worker,
        Err(error) => {
            eprintln!("sparqlog-serve: {error}");
            std::process::exit(1);
        }
    };

    sparqlog::serve::signal::install();
    let server = match Server::bind(config, &addr) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("sparqlog-serve: bind failed: {error}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(ServeAddr::Tcp(spec)) => eprintln!("sparqlog-serve: listening on tcp {spec}"),
        Ok(ServeAddr::Unix(path)) => {
            eprintln!("sparqlog-serve: listening on unix {}", path.display());
        }
        Err(_) => {}
    }
    if let Err(error) = server.run() {
        eprintln!("sparqlog-serve: {error}");
        std::process::exit(1);
    }
}
