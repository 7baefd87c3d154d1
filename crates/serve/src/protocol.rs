//! The service wire protocol: request/response frames layered directly on
//! the shard crate's `SQSN` snapshot codec ([`sparqlog_shard::codec`]).
//! Both directions of a connection start with the codec's stream header
//! ([`write_stream_header`](sparqlog_shard::codec::write_stream_header):
//! magic + version), then exchange codec frames — length prefix, payload,
//! CRC32C trailer — whose payload is a tag byte followed by codec-encoded
//! fields. The worker snapshots use the same frames and primitives, so one
//! codec version covers the whole system, and a frame corrupted in flight
//! fails its checksum instead of decoding as another request or response.
//!
//! A request frame always produces exactly one response frame, in order.
//! Jobs are identified by the server-assigned id returned in
//! [`Response::Accepted`].

use sparqlog_core::analysis::Population;
use sparqlog_core::RecoveryPolicy;
use sparqlog_obs::MetricsSnapshot;
use sparqlog_shard::codec::{write_frame, DecodeError, Decoder, Encoder, FrameReader, StreamError};
use sparqlog_shard::snapshot::Snapshot;
use std::io::{self, Read, Write};

/// Request tag bytes.
mod req {
    pub const PING: u8 = 1;
    pub const SUBMIT: u8 = 2;
    pub const STATUS: u8 = 3;
    pub const REPORT: u8 = 4;
    pub const DRAIN: u8 = 5;
    pub const EVENTS: u8 = 6;
    pub const METRICS: u8 = 7;
    pub const WAIT: u8 = 8;
}

/// Response tag bytes.
mod resp {
    pub const PONG: u8 = 1;
    pub const ACCEPTED: u8 = 2;
    pub const STATUS: u8 = 3;
    pub const REPORT: u8 = 4;
    pub const ERROR: u8 = 5;
    pub const REJECTED: u8 = 6;
    pub const EVENTS: u8 = 7;
    pub const METRICS: u8 = 8;
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Submit an analysis job over on-disk logs (label/path pairs, resolved
    /// on the *server's* filesystem).
    Submit {
        /// The population to fold.
        population: Population,
        /// How malformed input is handled (`Auto` = the *server's*
        /// `SPARQLOG_RECOVERY` environment decides).
        recovery: RecoveryPolicy,
        /// `(label, path)` pairs in report order.
        logs: Vec<(String, String)>,
    },
    /// Read a job's progress.
    Status {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Fetch a job's (possibly incremental) report.
    Report {
        /// The job id.
        job: u64,
        /// `true` for the full Table-1..6 report, `false` for Table 1 only.
        full: bool,
    },
    /// Ask the server to drain: finish in-flight jobs, refuse new ones.
    Drain,
    /// Fetch the structured event log (`job` 0 = all jobs).
    Events {
        /// Filter to one job id, or 0 for everything.
        job: u64,
    },
    /// Fetch the server's metric registry: a merged snapshot covering the
    /// pipeline, cache, shard, persist, and serve layers.
    Metrics,
    /// Block until a job settles (completes or fails) or the timeout
    /// elapses; answered with [`Response::Status`] either way. The server
    /// answers the moment the job settles — nothing polls.
    Wait {
        /// The job id.
        job: u64,
        /// How long the server may hold the request, in milliseconds.
        timeout_ms: u64,
    },
}

/// A job's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Partitions still running (or queued).
    Running,
    /// Every partition merged; the report is final.
    Complete,
    /// A partition exhausted its restart budget; see the error text.
    Failed,
}

impl JobPhase {
    fn code(self) -> u8 {
        match self {
            JobPhase::Running => 0,
            JobPhase::Complete => 1,
            JobPhase::Failed => 2,
        }
    }

    fn from_code(code: u8) -> Option<JobPhase> {
        match code {
            0 => Some(JobPhase::Running),
            1 => Some(JobPhase::Complete),
            2 => Some(JobPhase::Failed),
            _ => None,
        }
    }
}

/// A job's progress, as returned by [`Request::Status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Total partitions (one per submitted log).
    pub total: u64,
    /// Partitions merged so far.
    pub completed: u64,
    /// Worker restarts performed for this job so far.
    pub restarts: u64,
    /// Malformed entries tallied across the partitions merged so far.
    pub errors: u64,
    /// The failure description (empty unless `phase` is `Failed`).
    pub error: String,
}

/// A rendered report, as returned by [`Request::Report`]. `text` covers the
/// partitions merged so far; when `complete` it is byte-identical to the
/// in-process fused engine's report over the same logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The job id.
    pub job: u64,
    /// Whether every partition has been merged.
    pub complete: bool,
    /// Partitions merged into this report.
    pub completed: u64,
    /// Total partitions.
    pub total: u64,
    /// Malformed entries tallied across the partitions merged so far.
    pub errors: u64,
    /// The rendered report text.
    pub text: String,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Whether the server is draining (refusing new jobs).
        draining: bool,
        /// Jobs accepted so far.
        jobs: u64,
    },
    /// A submitted job was accepted.
    Accepted {
        /// The new job's id.
        job: u64,
        /// How many partitions it was split into.
        partitions: u64,
    },
    /// Answer to [`Request::Status`].
    Status(JobStatus),
    /// Answer to [`Request::Report`].
    Report(JobReport),
    /// The request failed (unknown job, bad request, …).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The request was refused because the server is draining.
    Rejected {
        /// Human-readable reason.
        message: String,
    },
    /// Answer to [`Request::Events`].
    Events {
        /// The matching event lines, oldest first.
        lines: Vec<String>,
    },
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// The merged metric snapshot (empty when metrics are disabled on
        /// the server).
        snapshot: MetricsSnapshot,
        /// The same snapshot in Prometheus-style text exposition.
        text: String,
    },
}

/// Encodes a recovery policy: one tag byte, plus the budget rate for
/// `ErrorBudget` (the only variant with a parameter).
fn put_recovery(out: &mut Encoder, policy: RecoveryPolicy) {
    match policy {
        RecoveryPolicy::Auto => out.put_u8(0),
        RecoveryPolicy::Strict => out.put_u8(1),
        RecoveryPolicy::Lenient => out.put_u8(2),
        RecoveryPolicy::ErrorBudget { max_per_10k } => {
            out.put_u8(3);
            out.put_varint(u64::from(max_per_10k));
        }
    }
}

fn take_recovery(decoder: &mut Decoder<'_>) -> Result<RecoveryPolicy, DecodeError> {
    match decoder.take_u8()? {
        0 => Ok(RecoveryPolicy::Auto),
        1 => Ok(RecoveryPolicy::Strict),
        2 => Ok(RecoveryPolicy::Lenient),
        3 => {
            let rate = decoder.take_varint()?;
            let max_per_10k =
                u32::try_from(rate).map_err(|_| decoder.invalid("error budget rate", rate))?;
            Ok(RecoveryPolicy::ErrorBudget { max_per_10k })
        }
        other => Err(decoder.invalid("recovery policy code", u64::from(other))),
    }
}

impl Request {
    /// Encodes the request payload (tag byte + body).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Encoder::new();
        match self {
            Request::Ping => out.put_u8(req::PING),
            Request::Submit {
                population,
                recovery,
                logs,
            } => {
                out.put_u8(req::SUBMIT);
                out.put_u8(population.code());
                put_recovery(&mut out, *recovery);
                out.put_usize(logs.len());
                for (label, path) in logs {
                    out.put_str(label);
                    out.put_str(path);
                }
            }
            Request::Status { job } => {
                out.put_u8(req::STATUS);
                out.put_varint(*job);
            }
            Request::Report { job, full } => {
                out.put_u8(req::REPORT);
                out.put_varint(*job);
                out.put_bool(*full);
            }
            Request::Drain => out.put_u8(req::DRAIN),
            Request::Events { job } => {
                out.put_u8(req::EVENTS);
                out.put_varint(*job);
            }
            Request::Metrics => out.put_u8(req::METRICS),
            Request::Wait { job, timeout_ms } => {
                out.put_u8(req::WAIT);
                out.put_varint(*job);
                out.put_varint(*timeout_ms);
            }
        }
        out.into_bytes()
    }

    /// Decodes a request payload whose first stream byte sits at
    /// `base_offset`.
    pub fn from_payload(payload: &[u8], base_offset: u64) -> Result<Request, DecodeError> {
        let mut decoder = Decoder::with_base_offset(payload, base_offset);
        let tag = decoder.take_u8()?;
        let request = match tag {
            req::PING => Request::Ping,
            req::SUBMIT => {
                let code = decoder.take_u8()?;
                let population = Population::from_code(code)
                    .ok_or_else(|| decoder.invalid("population code", u64::from(code)))?;
                let recovery = take_recovery(&mut decoder)?;
                let count = decoder.take_usize()?;
                let mut logs = Vec::with_capacity(count.min(1 << 12));
                for _ in 0..count {
                    let label = decoder.take_str()?;
                    let path = decoder.take_str()?;
                    logs.push((label, path));
                }
                Request::Submit {
                    population,
                    recovery,
                    logs,
                }
            }
            req::STATUS => Request::Status {
                job: decoder.take_varint()?,
            },
            req::REPORT => Request::Report {
                job: decoder.take_varint()?,
                full: decoder.take_bool()?,
            },
            req::DRAIN => Request::Drain,
            req::EVENTS => Request::Events {
                job: decoder.take_varint()?,
            },
            req::METRICS => Request::Metrics,
            req::WAIT => Request::Wait {
                job: decoder.take_varint()?,
                timeout_ms: decoder.take_varint()?,
            },
            tag => return Err(decoder.invalid("request tag", u64::from(tag))),
        };
        decoder.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response payload (tag byte + body).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Encoder::new();
        match self {
            Response::Pong { draining, jobs } => {
                out.put_u8(resp::PONG);
                out.put_bool(*draining);
                out.put_varint(*jobs);
            }
            Response::Accepted { job, partitions } => {
                out.put_u8(resp::ACCEPTED);
                out.put_varint(*job);
                out.put_varint(*partitions);
            }
            Response::Status(status) => {
                out.put_u8(resp::STATUS);
                out.put_varint(status.job);
                out.put_u8(status.phase.code());
                out.put_varint(status.total);
                out.put_varint(status.completed);
                out.put_varint(status.restarts);
                out.put_varint(status.errors);
                out.put_str(&status.error);
            }
            Response::Report(report) => {
                out.put_u8(resp::REPORT);
                out.put_varint(report.job);
                out.put_bool(report.complete);
                out.put_varint(report.completed);
                out.put_varint(report.total);
                out.put_varint(report.errors);
                out.put_str(&report.text);
            }
            Response::Error { message } => {
                out.put_u8(resp::ERROR);
                out.put_str(message);
            }
            Response::Rejected { message } => {
                out.put_u8(resp::REJECTED);
                out.put_str(message);
            }
            Response::Events { lines } => {
                out.put_u8(resp::EVENTS);
                out.put_usize(lines.len());
                for line in lines {
                    out.put_str(line);
                }
            }
            Response::Metrics { snapshot, text } => {
                out.put_u8(resp::METRICS);
                snapshot.encode(&mut out);
                out.put_str(text);
            }
        }
        out.into_bytes()
    }

    /// Decodes a response payload whose first stream byte sits at
    /// `base_offset`.
    pub fn from_payload(payload: &[u8], base_offset: u64) -> Result<Response, DecodeError> {
        let mut decoder = Decoder::with_base_offset(payload, base_offset);
        let tag = decoder.take_u8()?;
        let response = match tag {
            resp::PONG => Response::Pong {
                draining: decoder.take_bool()?,
                jobs: decoder.take_varint()?,
            },
            resp::ACCEPTED => Response::Accepted {
                job: decoder.take_varint()?,
                partitions: decoder.take_varint()?,
            },
            resp::STATUS => {
                let job = decoder.take_varint()?;
                let code = decoder.take_u8()?;
                let Some(phase) = JobPhase::from_code(code) else {
                    return Err(decoder.invalid("job phase code", u64::from(code)));
                };
                Response::Status(JobStatus {
                    job,
                    phase,
                    total: decoder.take_varint()?,
                    completed: decoder.take_varint()?,
                    restarts: decoder.take_varint()?,
                    errors: decoder.take_varint()?,
                    error: decoder.take_str()?,
                })
            }
            resp::REPORT => Response::Report(JobReport {
                job: decoder.take_varint()?,
                complete: decoder.take_bool()?,
                completed: decoder.take_varint()?,
                total: decoder.take_varint()?,
                errors: decoder.take_varint()?,
                text: decoder.take_str()?,
            }),
            resp::ERROR => Response::Error {
                message: decoder.take_str()?,
            },
            resp::REJECTED => Response::Rejected {
                message: decoder.take_str()?,
            },
            resp::EVENTS => {
                let count = decoder.take_usize()?;
                let mut lines = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    lines.push(decoder.take_str()?);
                }
                Response::Events { lines }
            }
            resp::METRICS => Response::Metrics {
                snapshot: MetricsSnapshot::decode(&mut decoder)?,
                text: decoder.take_str()?,
            },
            tag => return Err(decoder.invalid("response tag", u64::from(tag))),
        };
        decoder.finish()?;
        Ok(response)
    }
}

/// Writes one request as a length-prefixed frame and flushes.
pub fn write_request(out: &mut impl Write, request: &Request) -> io::Result<()> {
    write_frame(out, &request.to_payload())?;
    out.flush()
}

/// Writes one response as a length-prefixed frame and flushes.
pub fn write_response(out: &mut impl Write, response: &Response) -> io::Result<()> {
    write_frame(out, &response.to_payload())?;
    out.flush()
}

/// Reads the next request frame, or `None` on clean end-of-stream (the
/// client hung up between requests).
pub fn read_request<R: Read>(frames: &mut FrameReader<R>) -> Result<Option<Request>, StreamError> {
    let Some((payload, base)) = frames.next_frame()? else {
        return Ok(None);
    };
    Ok(Some(Request::from_payload(&payload, base)?))
}

/// Reads the next response frame, or `None` on clean end-of-stream (the
/// server hung up — it stopped, or the session ended on a broken stream).
pub fn read_response<R: Read>(
    frames: &mut FrameReader<R>,
) -> Result<Option<Response>, StreamError> {
    let Some((payload, base)) = frames.next_frame()? else {
        return Ok(None);
    };
    Ok(Some(Response::from_payload(&payload, base)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_shard::codec::write_stream_header;

    fn round_trip_request(request: Request) {
        let payload = request.to_payload();
        assert_eq!(Request::from_payload(&payload, 9).unwrap(), request);
    }

    fn round_trip_response(response: Response) {
        let payload = response.to_payload();
        assert_eq!(Response::from_payload(&payload, 9).unwrap(), response);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Submit {
            population: Population::Valid,
            recovery: RecoveryPolicy::Auto,
            logs: vec![
                ("DBpedia15".to_string(), "/logs/a.log".to_string()),
                ("label with spaces".to_string(), "/logs/ü.log".to_string()),
            ],
        });
        for recovery in [
            RecoveryPolicy::Strict,
            RecoveryPolicy::Lenient,
            RecoveryPolicy::ErrorBudget { max_per_10k: 25 },
            RecoveryPolicy::ErrorBudget {
                max_per_10k: u32::MAX,
            },
        ] {
            round_trip_request(Request::Submit {
                population: Population::Unique,
                recovery,
                logs: vec![("log".to_string(), "/logs/log".to_string())],
            });
        }
        round_trip_request(Request::Status { job: u64::MAX });
        round_trip_request(Request::Report { job: 3, full: true });
        round_trip_request(Request::Drain);
        round_trip_request(Request::Events { job: 0 });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Wait {
            job: 5,
            timeout_ms: 0,
        });
        round_trip_request(Request::Wait {
            job: u64::MAX,
            timeout_ms: u64::MAX,
        });
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Pong {
            draining: true,
            jobs: 7,
        });
        round_trip_response(Response::Accepted {
            job: 1,
            partitions: 12,
        });
        round_trip_response(Response::Status(JobStatus {
            job: 2,
            phase: JobPhase::Failed,
            total: 4,
            completed: 3,
            restarts: 9,
            errors: 17,
            error: "shard 1: worker exited with status 3".to_string(),
        }));
        round_trip_response(Response::Report(JobReport {
            job: 2,
            complete: false,
            completed: 1,
            total: 4,
            errors: 2,
            text: "Table 1\n=======\n".to_string(),
        }));
        round_trip_response(Response::Error {
            message: "unknown job 9".to_string(),
        });
        round_trip_response(Response::Rejected {
            message: "draining".to_string(),
        });
        round_trip_response(Response::Events {
            lines: vec!["t=1 event=drain".to_string()],
        });
        let snapshot = MetricsSnapshot {
            counters: vec![("pipeline_runs_total".to_string(), 3)],
            gauges: vec![("serve_sessions_open".to_string(), -1)],
            histograms: Vec::new(),
        };
        round_trip_response(Response::Metrics {
            text: snapshot.render_text(),
            snapshot,
        });
        round_trip_response(Response::Metrics {
            snapshot: MetricsSnapshot::default(),
            text: String::new(),
        });
    }

    #[test]
    fn bad_tags_are_structured_errors() {
        let error = Request::from_payload(&[99], 0).unwrap_err();
        assert!(format!("{error}").contains("request tag"), "{error}");
        let error = Response::from_payload(&[99], 0).unwrap_err();
        assert!(format!("{error}").contains("response tag"), "{error}");
    }

    #[test]
    fn bad_recovery_codes_are_structured_errors() {
        // Submit tag, population 0, then an unknown recovery code.
        let error = Request::from_payload(&[req::SUBMIT, 0, 9], 0).unwrap_err();
        assert!(
            format!("{error}").contains("recovery policy code"),
            "{error}"
        );
        // Budget rates wider than u32 are refused rather than truncated.
        let mut out = Encoder::new();
        out.put_u8(req::SUBMIT);
        out.put_u8(0);
        out.put_u8(3);
        out.put_varint(u64::from(u32::MAX) + 1);
        out.put_usize(0);
        let error = Request::from_payload(&out.into_bytes(), 0).unwrap_err();
        assert!(format!("{error}").contains("error budget rate"), "{error}");
    }

    /// The frame envelope of a protocol exchange, byte for byte: the
    /// stream header, a `Ping` request and its `Pong` answer.
    #[test]
    fn golden_bytes_pin_the_protocol_envelope() {
        let mut wire = Vec::new();
        write_stream_header(&mut wire).unwrap();
        write_request(&mut wire, &Request::Ping).unwrap();
        write_response(
            &mut wire,
            &Response::Pong {
                draining: false,
                jobs: 3,
            },
        )
        .unwrap();
        let golden: &[&[u8]] = &[
            // Header: magic + codec version 4.
            b"SQSN\x04",
            // Ping: length 1; tag 1; CRC32C.
            b"\x01\x01",
            b"\x52\xd0\x16\xa0",
            // Pong: length 3; tag 1, not draining, 3 jobs; CRC32C.
            b"\x03\x01\x00\x03",
            b"\xf0\xc2\x75\xd6",
        ];
        assert_eq!(wire, golden.concat());
        let mut frames = FrameReader::new(wire.as_slice());
        frames.read_header().unwrap();
        assert_eq!(read_request(&mut frames).unwrap(), Some(Request::Ping));
        assert_eq!(
            read_response(&mut frames).unwrap(),
            Some(Response::Pong {
                draining: false,
                jobs: 3
            })
        );
        assert_eq!(read_response(&mut frames).unwrap(), None);
    }

    #[test]
    fn a_flipped_byte_in_a_report_frame_fails_to_read() {
        let report = Response::Report(JobReport {
            job: 2,
            complete: true,
            completed: 4,
            total: 4,
            errors: 0,
            text: "Table 1\n=======\nDBpedia15  12  10\n".to_string(),
        });
        let mut wire = Vec::new();
        write_stream_header(&mut wire).unwrap();
        let header = wire.len();
        write_response(&mut wire, &report).unwrap();
        let read = |wire: &[u8]| {
            let mut frames = FrameReader::new(wire);
            frames.read_header().unwrap();
            read_response(&mut frames)
        };
        assert_eq!(read(&wire).unwrap(), Some(report));
        // The low bit of a text byte keeps it printable: without the
        // checksum trailer that flip would read as a different report.
        for at in header..wire.len() {
            wire[at] ^= 1;
            assert!(read(&wire).is_err(), "byte {at} flipped and still read");
            wire[at] ^= 1;
        }
    }

    #[test]
    fn framed_exchange_round_trips_over_a_buffer() {
        let mut wire = Vec::new();
        write_stream_header(&mut wire).unwrap();
        write_request(&mut wire, &Request::Ping).unwrap();
        write_request(&mut wire, &Request::Drain).unwrap();

        let mut frames = FrameReader::new(wire.as_slice());
        frames.read_header().unwrap();
        assert_eq!(read_request(&mut frames).unwrap(), Some(Request::Ping));
        assert_eq!(read_request(&mut frames).unwrap(), Some(Request::Drain));
        assert_eq!(read_request(&mut frames).unwrap(), None);
    }
}
