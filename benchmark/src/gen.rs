//! The benchmark's own corpus generator.
//!
//! Deliberately independent of `crates/synth`: a later edit to the
//! synthesizer must not be able to move a workload. Everything is drawn from
//! one SplitMix64 stream seeded by `--seed`, logs stream to disk one entry at
//! a time, and every fresh query embeds an IRI no other query of the corpus
//! carries — so the generator knows each log's Table-1 counts (total, valid,
//! unique, bodyless) *by construction*, which is the oracle the correctness
//! gate checks the program against.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// SplitMix64 (Steele, Lea, Flood): the whole generator's only randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by the multiply-shift reduction.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn per_mille(&mut self, share: u32) -> bool {
        self.below(1000) < u64::from(share)
    }
}

/// 64-bit FNV-1a over every byte the generator writes: two runs that report
/// the same corpus hash analysed identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn extend(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Which query shapes a log is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 1–3 triples, plain patterns with the occasional FILTER / OPTIONAL /
    /// modifier and a few body-less DESCRIBEs: the bulk of real endpoint logs.
    Simple,
    /// 4–8 triples as chains, stars, cycles and trees, decorated with
    /// OPTIONAL, FILTER, UNION and property paths: every structural analysis
    /// has work to do.
    Rich,
}

/// The generator's knobs, fixed per workload (see `workloads.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Mean occurrences per distinct canonical form; 1 makes every valid
    /// query distinct.
    pub occurrences: u32,
    /// Per mille of duplicate occurrences written with perturbed whitespace
    /// instead of byte for byte (same canonical form, different bytes).
    pub perturbed_per_mille: u32,
    /// Per mille of entries that are not SPARQL at all.
    pub garbage_per_mille: u32,
    pub mix: Mix,
}

/// What the generator knows about a log it wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogTruth {
    pub label: String,
    pub path: PathBuf,
    pub total: u64,
    pub valid: u64,
    pub unique: u64,
    pub bodyless: u64,
    pub bytes: u64,
}

impl LogTruth {
    /// Writes a small hand-made log (the probes' empty and one-entry
    /// files); every line is taken to be a distinct valid query.
    pub fn write(label: &str, path: &Path, lines: &[&str]) -> io::Result<LogTruth> {
        let contents: String = lines.iter().map(|line| format!("{line}\n")).collect();
        std::fs::write(path, &contents)?;
        let count = lines.len() as u64;
        Ok(LogTruth {
            label: label.to_string(),
            path: path.to_path_buf(),
            total: count,
            valid: count,
            unique: count,
            bodyless: 0,
            bytes: contents.len() as u64,
        })
    }
}

/// One generator per corpus: hands out corpus-unique IRIs and accumulates
/// the corpus hash across the logs it writes.
#[derive(Debug)]
pub struct Generator {
    rng: SplitMix64,
    serial: u64,
    pub fnv: Fnv64,
}

const PREDICATES: u64 = 32;

impl Generator {
    pub fn new(seed: u64) -> Generator {
        Generator {
            rng: SplitMix64::new(seed),
            serial: 0,
            fnv: Fnv64::default(),
        }
    }

    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Streams one log of `entries` lines to `path`.
    pub fn write_log(
        &mut self,
        label: &str,
        path: &Path,
        entries: u64,
        profile: &Profile,
    ) -> io::Result<LogTruth> {
        let mut out = BufWriter::with_capacity(1 << 16, File::create(path)?);
        let mut truth = LogTruth {
            label: label.to_string(),
            path: path.to_path_buf(),
            total: entries,
            valid: 0,
            unique: 0,
            bodyless: 0,
            bytes: 0,
        };
        // Fresh queries of this log, kept only while duplicates are wanted:
        // (text, is body-less). O(distinct per log), dropped with the log.
        let mut pool: Vec<(String, bool)> = Vec::new();
        let mut line = String::with_capacity(256);
        for _ in 0..entries {
            line.clear();
            if self.rng.per_mille(profile.garbage_per_mille) {
                self.garbage(&mut line);
            } else {
                truth.valid += 1;
                let fresh = pool.is_empty() || self.rng.below(u64::from(profile.occurrences)) == 0;
                if fresh {
                    let bodyless = self.fresh_query(profile.mix, &mut line);
                    truth.unique += 1;
                    truth.bodyless += u64::from(bodyless);
                    if profile.occurrences > 1 {
                        pool.push((line.clone(), bodyless));
                    }
                } else {
                    // Log-uniform rank: P(rank r) ∝ 1/r, the continuous
                    // Zipf(1) — early queries of a log recur most.
                    let rank = (pool.len() as f64).powf(self.rng.unit()) as usize;
                    let (text, bodyless) = &pool[rank.min(pool.len()) - 1];
                    truth.bodyless += u64::from(*bodyless);
                    if self.rng.per_mille(profile.perturbed_per_mille) {
                        perturb_whitespace(text, &mut self.rng, &mut line);
                    } else {
                        line.push_str(text);
                    }
                }
            }
            line.push('\n');
            out.write_all(line.as_bytes())?;
            self.fnv.extend(line.as_bytes());
            truth.bytes += line.len() as u64;
        }
        out.flush()?;
        Ok(truth)
    }

    fn unique_iri(&mut self) -> String {
        self.serial += 1;
        format!("<http://b.example/q/{:x}>", self.serial)
    }

    fn predicate(&mut self) -> String {
        format!("<http://b.example/p/{}>", self.rng.below(PREDICATES))
    }

    /// Writes a query no other entry of the corpus is a duplicate of;
    /// returns whether it is body-less.
    fn fresh_query(&mut self, mix: Mix, out: &mut String) -> bool {
        match mix {
            Mix::Simple => self.simple_query(out),
            Mix::Rich => {
                self.rich_query(out);
                false
            }
        }
    }

    fn simple_query(&mut self, out: &mut String) -> bool {
        let unique = self.unique_iri();
        let form = self.rng.below(100);
        if form < 4 {
            let _ = write!(out, "DESCRIBE {unique}");
            return true;
        }
        let triples = match self.rng.below(100) {
            0..=59 => 1,
            60..=86 => 2,
            _ => 3,
        };
        let mut body = String::new();
        match triples {
            1 => {
                let p = self.predicate();
                if self.rng.below(2) == 0 {
                    let _ = write!(body, "?s {p} {unique}");
                } else {
                    let _ = write!(body, "{unique} {p} ?s");
                }
            }
            2 => {
                let (p1, p2) = (self.predicate(), self.predicate());
                let _ = write!(body, "?s {p1} ?o . ?o {p2} {unique}");
            }
            _ => {
                let (p1, p2, p3) = (self.predicate(), self.predicate(), self.predicate());
                if self.rng.below(2) == 0 {
                    let _ = write!(body, "?s {p1} ?o . ?o {p2} ?z . ?z {p3} {unique}");
                } else {
                    let _ = write!(body, "?s {p1} ?o . ?s {p2} ?z . ?s {p3} {unique}");
                }
            }
        }
        if triples > 1 && self.rng.below(100) < 15 {
            let _ = write!(
                body,
                " FILTER(?o != <http://b.example/r/{}>)",
                self.rng.below(500)
            );
        }
        if self.rng.below(100) < 10 {
            let p = self.predicate();
            let _ = write!(body, " OPTIONAL {{ ?s {p} ?l }}");
        }
        match form {
            4..=11 => {
                let _ = write!(out, "ASK {{ {body} }}");
            }
            12..=13 => {
                let p = self.predicate();
                let _ = write!(out, "CONSTRUCT {{ ?s {p} ?s }} WHERE {{ {body} }}");
            }
            _ => {
                let head = match self.rng.below(10) {
                    0..=5 => "SELECT ?s",
                    6..=7 => "SELECT DISTINCT ?s",
                    _ => "SELECT *",
                };
                let _ = write!(out, "{head} WHERE {{ {body} }}");
                if self.rng.below(100) < 30 {
                    let _ = write!(out, " LIMIT {}", 1 + self.rng.below(1000));
                }
            }
        }
        false
    }

    fn rich_query(&mut self, out: &mut String) {
        let unique = self.unique_iri();
        // 3..=7 structural edges plus the anchoring triple: 4..=8 triples.
        let edges = 3 + self.rng.below(5) as usize;
        let shape = self.rng.below(4);
        let endpoints: Vec<(usize, usize)> = (0..edges)
            .map(|i| match shape {
                0 => (i, i + 1),               // chain
                1 => (0, i + 1),               // star
                2 if i + 1 == edges => (i, 0), // cycle: closing edge
                2 => (i, i + 1),
                _ => (i / 2, i + 1), // binary tree
            })
            .collect();
        let mut triples: Vec<String> = Vec::with_capacity(edges);
        let path_at = (self.rng.below(100) < 30).then(|| self.rng.below(edges as u64) as usize);
        for (i, &(a, b)) in endpoints.iter().enumerate() {
            let p1 = self.predicate();
            let predicate = if path_at == Some(i) {
                let p2 = self.predicate();
                match self.rng.below(5) {
                    0 => format!("{p1}/{p2}"),
                    1 => format!("{p1}*"),
                    2 => format!("({p1}|{p2})"),
                    3 => format!("{p1}+"),
                    _ => format!("^{p1}"),
                }
            } else {
                p1
            };
            triples.push(format!("?v{a} {predicate} ?v{b}"));
        }
        let anchor = self.predicate();
        let mut body = format!("?v0 {anchor} {unique}");
        // The last one or two edges may go optional, one edge may become a
        // two-branch UNION.
        let optional = if self.rng.below(100) < 50 {
            1 + self.rng.below(2) as usize
        } else {
            0
        };
        let union_at =
            (self.rng.below(100) < 15).then(|| self.rng.below((edges - optional) as u64) as usize);
        for (i, triple) in triples.iter().enumerate().take(edges - optional) {
            if union_at == Some(i) {
                let (a, b) = endpoints[i];
                let p = self.predicate();
                let _ = write!(body, " . {{ {triple} }} UNION {{ ?v{a} {p} ?v{b} }}");
            } else {
                let _ = write!(body, " . {triple}");
            }
        }
        if optional > 0 {
            let _ = write!(
                body,
                " OPTIONAL {{ {} }}",
                triples[edges - optional..].join(" . ")
            );
        }
        if self.rng.below(100) < 50 {
            match self.rng.below(4) {
                0 => body.push_str(" FILTER(?v0 != ?v1)"),
                1 => body.push_str(" FILTER(regex(str(?v1), \"^ab\"))"),
                2 => {
                    let _ = write!(body, " FILTER(?v1 > {})", self.rng.below(100));
                }
                _ => body.push_str(" FILTER(lang(?v1) = \"en\")"),
            }
        }
        match self.rng.below(10) {
            0 => {
                let _ = write!(out, "ASK {{ {body} }}");
                return;
            }
            1..=4 => out.push_str("SELECT ?v0 ?v1"),
            5..=6 => out.push_str("SELECT DISTINCT ?v0"),
            _ => out.push_str("SELECT *"),
        }
        let _ = write!(out, " WHERE {{ {body} }}");
        if self.rng.below(100) < 10 {
            out.push_str(" ORDER BY ?v0");
        }
        if self.rng.below(100) < 30 {
            let _ = write!(out, " LIMIT {}", 1 + self.rng.below(1000));
        }
    }

    /// An entry that must not parse: access-log noise, a truncated query, a
    /// misspelt keyword. Valid UTF-8 and well under every resource guard, so
    /// it is a plain lex/syntax failure under every recovery policy.
    fn garbage(&mut self, out: &mut String) {
        let n = self.rng.below(100_000);
        let _ = match self.rng.below(3) {
            0 => write!(
                out,
                "GET /sparql?query=SELECT+%3Fs+WHERE&format=json HTTP/1.1 {n}"
            ),
            1 => write!(out, "SELECT ?x WHERE {{ ?x <http://b.example/p/{n}> "),
            _ => write!(out, "SELEC ?x WHERE {{ ?x ?p <http://b.example/r/{n}> }}"),
        };
    }
}

/// Rewrites `text` with some token-separating spaces doubled or turned into
/// tabs. The templates above put no space inside an IRI or a literal, so the
/// canonical form is unchanged.
fn perturb_whitespace(text: &str, rng: &mut SplitMix64, out: &mut String) {
    let mut changed = false;
    for ch in text.chars() {
        if ch == ' ' {
            match rng.below(4) {
                0 => {
                    out.push_str("  ");
                    changed = true;
                }
                1 => {
                    out.push('\t');
                    changed = true;
                }
                _ => out.push(' '),
            }
        } else {
            out.push(ch);
        }
    }
    if !changed {
        out.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    const DUP: Profile = Profile {
        occurrences: 12,
        perturbed_per_mille: 300,
        garbage_per_mille: 40,
        mix: Mix::Simple,
    };
    const DISTINCT: Profile = Profile {
        occurrences: 1,
        perturbed_per_mille: 0,
        garbage_per_mille: 40,
        mix: Mix::Rich,
    };

    fn corpus(dir: &Path, seed: u64, profile: &Profile) -> (Vec<LogTruth>, u64) {
        std::fs::create_dir_all(dir).unwrap();
        let mut generator = Generator::new(seed);
        let logs = (0..2)
            .map(|i| {
                generator
                    .write_log(
                        &format!("log{i}"),
                        &dir.join(format!("{i}.log")),
                        500,
                        profile,
                    )
                    .unwrap()
            })
            .collect();
        (logs, generator.fnv.0)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let dir = crate::sys::TempDir::new("gen-determinism").unwrap();
        let (a, fnv_a) = corpus(&dir.path().join("a"), 7, &DUP);
        let (b, fnv_b) = corpus(&dir.path().join("b"), 7, &DUP);
        let (_, fnv_c) = corpus(&dir.path().join("c"), 8, &DUP);
        assert_eq!(fnv_a, fnv_b);
        assert_ne!(fnv_a, fnv_c);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                std::fs::read(&x.path).unwrap(),
                std::fs::read(&y.path).unwrap()
            );
        }
    }

    #[test]
    fn the_program_counts_what_the_generator_wrote() {
        let dir = crate::sys::TempDir::new("gen-oracle").unwrap();
        for (name, profile) in [("dup", DUP), ("distinct", DISTINCT)] {
            let (logs, _) = corpus(&dir.path().join(name), 11, &profile);
            let reference = layers::analyze_and_render(&logs).unwrap();
            assert_eq!(
                layers::oracle_mismatches(&logs, &reference.counts()),
                Vec::<String>::new()
            );
            let total: u64 = logs.iter().map(|l| l.total).sum();
            let valid: u64 = logs.iter().map(|l| l.valid).sum();
            let unique: u64 = logs.iter().map(|l| l.unique).sum();
            assert_eq!(total, 1000);
            assert!(valid < total, "{name}: some garbage expected");
            if profile.occurrences == 1 {
                assert_eq!(unique, valid, "{name}: every valid query distinct");
            } else {
                assert!(unique * 4 < valid, "{name}: duplicates expected");
            }
        }
    }
}
