//! The analysis-service client CLI.
//!
//! ```text
//! sparqlog-client [--tcp ADDR | --unix PATH] [--retries N] [--retry-backoff-ms N] <command>
//! ```
//!
//! `--retries N` retries a refused/reset connection with exponential
//! backoff (first delay `--retry-backoff-ms`, default 100 ms, doubling,
//! capped at 2 s) — enough to ride out a daemon restart. Resubmitting the
//! same logs after a restart is idempotent when the daemon runs with
//! `--store`: the work merges from the snapshot store instead of
//! re-running.
//!
//! Commands:
//!
//! * `ping`                          liveness check (prints drain state)
//! * `submit [--valid] [--wait] [--full] [--recovery POLICY] <label>=<path>...`
//!   submit a job (paths resolved on the server); with `--wait`, block
//!   until it settles and print the report. `POLICY` is `strict`,
//!   `lenient`, or `budget:<n>` (defects per 10k entries); the default
//!   defers to the server's `SPARQLOG_RECOVERY` environment
//! * `status <job>`                  one job's progress
//! * `report <job> [--full]`         the job's (possibly partial) report
//! * `drain`                         ask the server to refuse new jobs
//! * `events [<job>]`                the structured event log
//! * `metrics`                       the server's metric registry in text
//!   exposition format (pipeline, cache, shard, persist, and serve
//!   layers); empty when the server runs with `SPARQLOG_METRICS=0`
//!
//! Exits non-zero when a waited-on or reported job has failed.

use sparqlog::core::{Population, RecoveryPolicy};
use sparqlog::serve::{Client, ClientError, ConnectRetry, JobPhase, ServeAddr};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: sparqlog-client [--tcp ADDR | --unix PATH] \
         [--retries N] [--retry-backoff-ms N] \
         (ping | submit [--valid] [--wait] [--full] [--recovery POLICY] \
         <label>=<path>... | \
         status <job> | report <job> [--full] | drain | events [<job>] | metrics)"
    );
    std::process::exit(2);
}

fn fail(error: ClientError) -> ! {
    eprintln!("sparqlog-client: {error}");
    std::process::exit(1);
}

fn main() {
    let mut addr = ServeAddr::Tcp("127.0.0.1:7878".to_string());
    let mut retry = ConnectRetry {
        attempts: 0,
        ..ConnectRetry::default()
    };
    let mut args = std::env::args().skip(1).peekable();
    loop {
        match args.peek().map(String::as_str) {
            Some("--tcp") => {
                args.next();
                match args.next() {
                    Some(spec) => addr = ServeAddr::Tcp(spec),
                    None => usage(),
                }
            }
            Some("--unix") => {
                args.next();
                match args.next() {
                    Some(path) => addr = ServeAddr::Unix(path.into()),
                    None => usage(),
                }
            }
            Some("--retries") => {
                args.next();
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => retry.attempts = n,
                    None => usage(),
                }
            }
            Some("--retry-backoff-ms") => {
                args.next();
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => retry.backoff = Duration::from_millis(n),
                    None => usage(),
                }
            }
            _ => break,
        }
    }
    let Some(command) = args.next() else { usage() };
    let mut client = match Client::connect_with_retry(&addr, &retry) {
        Ok(client) => client,
        Err(error) => fail(error),
    };

    match command.as_str() {
        "ping" => match client.ping() {
            Ok((draining, jobs)) => {
                println!(
                    "pong: {} ({jobs} jobs accepted)",
                    if draining { "draining" } else { "serving" }
                );
            }
            Err(error) => fail(error),
        },
        "submit" => {
            let mut population = Population::Unique;
            let mut recovery = RecoveryPolicy::Auto;
            let mut wait = false;
            let mut full = false;
            let mut logs = Vec::new();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--valid" => population = Population::Valid,
                    "--wait" => wait = true,
                    "--full" => full = true,
                    "--recovery" => match args.next().as_deref().and_then(RecoveryPolicy::parse) {
                        Some(policy) => recovery = policy,
                        None => usage(),
                    },
                    spec => match spec.split_once('=') {
                        Some((label, path)) if !label.is_empty() && !path.is_empty() => {
                            logs.push((label.to_string(), path.to_string()));
                        }
                        _ => usage(),
                    },
                }
            }
            if logs.is_empty() {
                usage();
            }
            let (job, partitions) = match client.submit(population, recovery, logs) {
                Ok(accepted) => accepted,
                Err(error) => fail(error),
            };
            eprintln!("sparqlog-client: job {job} accepted ({partitions} partitions)");
            if !wait {
                println!("{job}");
                return;
            }
            let status = match client.wait_settled(job, Duration::from_secs(24 * 3600)) {
                Ok(status) => status,
                Err(error) => fail(error),
            };
            if status.phase == JobPhase::Failed {
                eprintln!("sparqlog-client: job {job} failed: {}", status.error);
                std::process::exit(1);
            }
            match client.report(job, full) {
                Ok(report) => println!("{}", report.text),
                Err(error) => fail(error),
            }
        }
        "status" => {
            let Some(job) = args.next().and_then(|v| v.parse().ok()) else {
                usage()
            };
            match client.status(job) {
                Ok(status) => {
                    println!(
                        "job {}: {:?} ({}/{} partitions, {} restarts, {} malformed entries){}",
                        status.job,
                        status.phase,
                        status.completed,
                        status.total,
                        status.restarts,
                        status.errors,
                        if status.error.is_empty() {
                            String::new()
                        } else {
                            format!(" — {}", status.error)
                        }
                    );
                    if status.phase == JobPhase::Failed {
                        std::process::exit(1);
                    }
                }
                Err(error) => fail(error),
            }
        }
        "report" => {
            let Some(job) = args.next().and_then(|v| v.parse().ok()) else {
                usage()
            };
            let full = matches!(args.next().as_deref(), Some("--full"));
            match client.report(job, full) {
                Ok(report) => {
                    if !report.complete {
                        eprintln!(
                            "sparqlog-client: partial report ({}/{} partitions)",
                            report.completed, report.total
                        );
                    }
                    println!("{}", report.text);
                }
                Err(error) => fail(error),
            }
        }
        "drain" => match client.drain() {
            Ok(()) => println!("draining"),
            Err(error) => fail(error),
        },
        "events" => {
            let job = args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            match client.events(job) {
                Ok(lines) => {
                    for line in lines {
                        println!("{line}");
                    }
                }
                Err(error) => fail(error),
            }
        }
        "metrics" => match client.metrics() {
            Ok((snapshot, text)) => {
                if snapshot.is_empty() {
                    eprintln!("sparqlog-client: no metrics (server runs with metrics disabled?)");
                }
                print!("{text}");
            }
            Err(error) => fail(error),
        },
        _ => usage(),
    }
}
