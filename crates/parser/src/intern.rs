//! String interning for the analysis hot path.
//!
//! The corpus pipeline looks at the same variable names millions of times:
//! every canonical-graph node, union-find key and visibility test used to
//! re-hash (or re-allocate) the name's string. An [`Interner`] maps each
//! distinct string to a dense [`Symbol`] — a `u32` index into a shared
//! string table — so downstream hashing and comparison become integer
//! operations and each distinct string is stored exactly once per worker.
//!
//! Interners are **per worker**: they are cheap to create, are not shared
//! across threads, and keep growing over the queries a worker analyses, which
//! is exactly what makes them effective as long as callers intern names
//! from a small vocabulary (the corpus-wide set of variable and blank-node
//! names is tiny compared to the number of occurrences) and not constants
//! (a log has as many distinct IRIs and literals as it likes). In the
//! staged analysis engine a worker's interner lives for the fold over its
//! chunks; in the fused ingest→analyze engine it lives for the whole stream —
//! threaded through every first-occurrence analysis a worker performs while
//! batches are still being parsed — and its [`InternStats`] are merged
//! across workers into the run's combined counters either way.
//!
//! ```
//! use sparqlog_parser::intern::Interner;
//!
//! let mut interner = Interner::new();
//! let a = interner.intern("http://example.org/p");
//! let b = interner.intern("http://example.org/p");
//! assert_eq!(a, b); // same string, same symbol — an integer comparison
//! assert_eq!(interner.resolve(a), "http://example.org/p");
//! let stats = interner.stats();
//! assert_eq!((stats.distinct, stats.hits), (1, 1));
//! assert_eq!(stats.bytes_saved, "http://example.org/p".len() as u64);
//! ```

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A handle to an interned string: a dense `u32` index into the owning
/// [`Interner`]'s string table. Comparing, ordering and hashing symbols are
/// integer operations; the string is recovered with [`Interner::resolve`].
///
/// Symbols are only meaningful relative to the interner that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of the symbol in its interner's string table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Counters describing how much work an [`Interner`] absorbed: how many
/// lookups hit an already-interned string and how many string bytes were
/// *not* re-stored because of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InternStats {
    /// Distinct strings in the table.
    pub distinct: u64,
    /// Total [`Interner::intern`] calls.
    pub lookups: u64,
    /// Lookups that found the string already interned.
    pub hits: u64,
    /// Bytes held by the string table (each distinct string once).
    pub bytes_interned: u64,
    /// Bytes of repeated strings that were served from the table instead of
    /// being stored (or hashed as strings) again — the allocation diet.
    pub bytes_saved: u64,
}

impl InternStats {
    /// Sums another worker's counters into this one (the per-worker interners
    /// of the analysis pool report one combined figure).
    pub fn merge(&mut self, other: &InternStats) {
        self.distinct += other.distinct;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.bytes_interned += other.bytes_interned;
        self.bytes_saved += other.bytes_saved;
    }

    /// The share of lookups served from the table.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }
}

/// A pass-through hasher for pre-computed 64-bit string hashes: the bucket
/// keys of the interner are already FNV-1a outputs, so re-hashing them would
/// be pure overhead.
#[derive(Debug, Default)]
struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

/// 64-bit FNV-1a over a string's bytes.
fn fnv64(s: &str) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// A symbol table mapping strings to dense [`Symbol`]s.
///
/// Each distinct string is stored **once**, in `strings`; the lookup index
/// maps the string's 64-bit FNV-1a hash to the symbols sharing that hash
/// (collisions are resolved by comparing against the stored string), so the
/// table never duplicates key storage the way a `HashMap<String, Symbol>`
/// would.
#[derive(Debug, Default)]
pub struct Interner {
    /// The string table, indexed by [`Symbol::index`].
    strings: Vec<Box<str>>,
    /// FNV-1a hash of a string → symbols whose strings share that hash.
    buckets: HashMap<u64, Vec<Symbol>, BuildHasherDefault<PrehashedHasher>>,
    stats: InternStats,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns a string, returning its symbol. The first occurrence stores
    /// the string; every later occurrence is an integer-keyed lookup that
    /// allocates nothing.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = fnv64(s);
        self.intern_hashed(s, hash)
    }

    /// [`Interner::intern`] under a caller-supplied bucket hash — the actual
    /// implementation, split out so the tests can force two strings into one
    /// bucket and exercise the collision scan (a real 64-bit collision is
    /// too rare to hit organically).
    fn intern_hashed(&mut self, s: &str, hash: u64) -> Symbol {
        self.stats.lookups += 1;
        if let Some(candidates) = self.buckets.get(&hash) {
            for &symbol in candidates {
                if &*self.strings[symbol.index()] == s {
                    self.stats.hits += 1;
                    self.stats.bytes_saved += s.len() as u64;
                    return symbol;
                }
            }
        }
        let symbol = Symbol(
            u32::try_from(self.strings.len())
                .expect("interner overflow: more than u32::MAX distinct strings"),
        );
        self.strings.push(s.into());
        self.stats.distinct += 1;
        self.stats.bytes_interned += s.len() as u64;
        self.buckets.entry(hash).or_default().push(symbol);
        symbol
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, symbol: Symbol) -> &str {
        &self.strings[symbol.index()]
    }

    /// The symbol of an already-interned string, without interning it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        let candidates = self.buckets.get(&fnv64(s))?;
        candidates
            .iter()
            .copied()
            .find(|&sym| &*self.strings[sym.index()] == s)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// A snapshot of the interner's counters.
    pub fn stats(&self) -> InternStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("http://example.org/very/long/iri");
        let a2 = i.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "x");
        assert_eq!(i.resolve(b), "http://example.org/very/long/iri");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.lookup("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.lookup("present"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn stats_track_hits_and_bytes() {
        let mut i = Interner::new();
        i.intern("abcd");
        i.intern("abcd");
        i.intern("abcd");
        i.intern("ef");
        let s = i.stats();
        assert_eq!(s.distinct, 2);
        assert_eq!(s.lookups, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.bytes_interned, 6);
        assert_eq!(s.bytes_saved, 8);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = InternStats {
            distinct: 1,
            lookups: 3,
            hits: 2,
            bytes_interned: 4,
            bytes_saved: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.lookups, 6);
        assert_eq!(a.bytes_saved, 16);
    }

    #[test]
    fn hash_collisions_are_resolved_by_comparison() {
        // Drive the collision branch directly: three distinct strings forced
        // into one bucket must stay distinct symbols, and re-interning any
        // of them must scan past the other bucket entries to the right one.
        let mut i = Interner::new();
        let a = i.intern_hashed("alpha", 42);
        let b = i.intern_hashed("beta", 42);
        let c = i.intern_hashed("gamma", 42);
        assert_eq!(i.len(), 3);
        assert!(a != b && b != c && a != c);
        assert_eq!(i.intern_hashed("alpha", 42), a);
        assert_eq!(i.intern_hashed("beta", 42), b);
        assert_eq!(i.intern_hashed("gamma", 42), c);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.resolve(c), "gamma");
        assert_eq!(i.stats().hits, 3);
        // And the public entry points stay consistent over a large table.
        let symbols: Vec<Symbol> = (0..500).map(|n| i.intern(&format!("s{n}"))).collect();
        for (n, &sym) in symbols.iter().enumerate() {
            assert_eq!(i.resolve(sym), format!("s{n}"));
            assert_eq!(i.intern(&format!("s{n}")), sym);
            assert_eq!(i.lookup(&format!("s{n}")), Some(sym));
        }
    }
}
