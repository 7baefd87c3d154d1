//! SWAR (SIMD-within-a-register) byte classification shared by the
//! zero-copy [`lexer`](crate::lexer) and `core`'s streaming line readers.
//!
//! Every scanner here walks its input a machine word at a time and builds a
//! per-lane *stop mask*: the high bit of each byte lane is set exactly when
//! the lane leaves the scanned character class. The masks are assembled from
//! carry-free range/equality tests over the low seven bits (no arithmetic
//! ever crosses a lane boundary), so — unlike the classic borrow-propagating
//! "has zero byte" trick — each mask is *exact* and may be popcounted, not
//! just searched for its lowest set bit.
//!
//! The one borrow-based scanner, [`find_newline`], predates this module in
//! `core`'s `LineLogReader` and is hoisted here so both the lexer's comment
//! skipping and the line readers share a single implementation. Its
//! approximate mask is safe because only the *first* match is consumed:
//! borrow-induced false flags can only appear in lanes above a true match.
//!
//! [`hash128`] lives here for the same reason: it is the other thing the
//! pipeline does to raw bytes a machine word at a time, before any of them
//! is a token (per entry for the memo, per log file for store identities).
//! Its two workloads want different shapes: a short line pays for any
//! set-up, while a whole log is long and one lane of dependent multiplies
//! leaves the multiplier idle. So up to 256 bytes it is one lane, and past
//! that — a whole log, and any line that long — four independent lanes
//! share each 64-byte block.

/// `0x01` in every lane.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every lane.
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte into every lane of a word.
#[inline(always)]
const fn splat(b: u8) -> u64 {
    ONES * b as u64
}

/// Exact per-lane test `lo <= lane <= hi` for an ASCII range (`hi < 0x80`):
/// returns a word whose lane high bits are set exactly on the lanes inside
/// the range. Lanes with their own high bit set (non-ASCII) are never
/// members. All additions stay inside their lane: the masked lane value is
/// at most `0x7F` and both addends are at most `0x7F`, so no carry crosses
/// into the neighbouring lane and the mask is exact (popcount-safe).
#[inline(always)]
const fn in_range(word: u64, lo: u8, hi: u8) -> u64 {
    let seven = word & !HIGHS;
    let ge_lo = seven.wrapping_add(splat(0x80 - lo)) & HIGHS;
    let gt_hi = seven.wrapping_add(splat(0x7F - hi)) & HIGHS;
    ge_lo & !gt_hi & !(word & HIGHS)
}

/// Exact per-lane equality test against one ASCII byte.
#[inline(always)]
const fn eq(word: u64, b: u8) -> u64 {
    in_range(word, b, b)
}

/// Loads the word starting at `bytes[i]` (caller guarantees 8 bytes).
#[inline(always)]
fn load(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte chunk"))
}

/// The generic scanner skeleton: advances from `start` while `member`
/// holds, taking 8-byte SWAR strides through the interior and a scalar tail
/// at the end. `member_mask` must be the exact word-at-a-time image of
/// `member` (lane high bit set iff the lane byte is a member).
#[inline(always)]
fn scan_while(
    bytes: &[u8],
    start: usize,
    member_mask: impl Fn(u64) -> u64,
    member: impl Fn(u8) -> bool,
) -> usize {
    let mut i = start;
    while i + 8 <= bytes.len() {
        let stops = !member_mask(load(bytes, i)) & HIGHS;
        if stops != 0 {
            return i + stops.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < bytes.len() && member(bytes[i]) {
        i += 1;
    }
    i
}

/// True for bytes that may start a SPARQL name (variable names, prefixes,
/// local parts). Multi-byte UTF-8 lead bytes are accepted so that
/// internationalized names in real logs tokenize.
#[inline(always)]
pub fn is_name_start_char(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// True for bytes that may continue a SPARQL name.
#[inline(always)]
pub fn is_name_char(b: u8) -> bool {
    is_name_start_char(b) || b.is_ascii_digit() || b == b'-'
}

/// The SPARQL whitespace set: the five bytes `is_ascii_whitespace` accepts
/// (space, tab, line feed, form feed, carriage return).
#[inline(always)]
pub fn is_whitespace(b: u8) -> bool {
    b.is_ascii_whitespace()
}

#[inline(always)]
fn whitespace_mask(w: u64) -> u64 {
    eq(w, b' ') | in_range(w, 0x09, 0x0A) | in_range(w, 0x0C, 0x0D)
}

#[inline(always)]
fn name_mask(w: u64) -> u64 {
    in_range(w, b'A', b'Z')
        | in_range(w, b'a', b'z')
        | in_range(w, b'0', b'9')
        | eq(w, b'_')
        | eq(w, b'-')
        | (w & HIGHS)
}

/// Returns the end of the whitespace run starting at `start`: the index of
/// the first non-whitespace byte, or `bytes.len()`.
#[inline]
pub fn skip_whitespace(bytes: &[u8], start: usize) -> usize {
    scan_while(bytes, start, whitespace_mask, is_whitespace)
}

/// Returns the end of the name-character run starting at `start`
/// (`[A-Za-z0-9_-]` plus any byte ≥ `0x80`).
#[inline]
pub fn scan_name(bytes: &[u8], start: usize) -> usize {
    scan_while(bytes, start, name_mask, is_name_char)
}

/// Returns the end of the prefixed-name *local part* run starting at
/// `start`: name characters plus `.`, `%` and `\` (the lexer rewinds
/// trailing dots afterwards).
#[inline]
pub fn scan_local(bytes: &[u8], start: usize) -> usize {
    scan_while(
        bytes,
        start,
        |w| name_mask(w) | eq(w, b'.') | eq(w, b'%') | eq(w, b'\\'),
        |b| is_name_char(b) || b == b'.' || b == b'%' || b == b'\\',
    )
}

/// Returns the end of the ASCII digit run starting at `start`.
#[inline]
pub fn scan_digits(bytes: &[u8], start: usize) -> usize {
    scan_while(
        bytes,
        start,
        |w| in_range(w, b'0', b'9'),
        |b| b.is_ascii_digit(),
    )
}

/// True for bytes an IRI reference body may contain: everything except the
/// closing `>`, the forbidden set `< " { } | ^ ` \` and control/space
/// bytes (≤ `0x20`).
#[inline(always)]
pub fn is_iri_body_char(b: u8) -> bool {
    !matches!(
        b,
        b'>' | b'<' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
    ) && b > 0x20
}

/// Returns the index of the first byte after `start` that terminates an IRI
/// body — the closing `>`, a forbidden character or a control/space byte —
/// or `bytes.len()`. The caller inspects the byte at the returned index to
/// decide between an IRI reference and the `<` operator.
#[inline]
pub fn scan_iri_body(bytes: &[u8], start: usize) -> usize {
    scan_while(
        bytes,
        start,
        |w| {
            let stops = in_range(w, 0x00, 0x20)
                | eq(w, b'>')
                | eq(w, b'<')
                | eq(w, b'"')
                | eq(w, b'{')
                | eq(w, b'}')
                | eq(w, b'|')
                | eq(w, b'^')
                | eq(w, b'`')
                | eq(w, b'\\');
            !stops & HIGHS
        },
        is_iri_body_char,
    )
}

/// Returns the index of the first byte at or after `start` that needs
/// per-byte attention inside a string literal: the quote character, a
/// backslash, or (when `stop_at_newline` is set, for short strings) a line
/// terminator. Everything before that index is plain payload the zero-copy
/// lexer can borrow.
#[inline]
pub fn scan_string_plain(bytes: &[u8], start: usize, quote: u8, stop_at_newline: bool) -> usize {
    scan_while(
        bytes,
        start,
        |w| {
            let mut stops = eq(w, quote) | eq(w, b'\\');
            if stop_at_newline {
                stops |= eq(w, b'\n') | eq(w, b'\r');
            }
            !stops & HIGHS
        },
        |b| b != quote && b != b'\\' && (!stop_at_newline || (b != b'\n' && b != b'\r')),
    )
}

/// Counts the newlines in `bytes` and reports the index of the last one.
/// Used by the lexer to carry line/column bookkeeping across multi-line
/// regions (whitespace runs, long strings) it skipped word-at-a-time.
#[inline]
pub fn count_newlines(bytes: &[u8]) -> (u32, Option<usize>) {
    let mut count = 0u32;
    let mut last = None;
    let mut from = 0usize;
    while let Some(position) = find_newline(&bytes[from..]) {
        count += 1;
        last = Some(from + position);
        from += position + 1;
    }
    (count, last)
}

/// Returns the index of the first `\n` in `bytes`, scanning a machine word
/// at a time (SWAR — the classic "has zero byte" bit trick over the
/// XOR-masked word) instead of iterating per byte. `from_le_bytes` pins the
/// lane order so `trailing_zeros` locates the *first* match on any
/// endianness; lanes below the first match carry no borrow, so the reported
/// position is exact even though higher lanes may raise false flags.
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LANES: usize = std::mem::size_of::<usize>();
    const ONES: usize = usize::from_le_bytes([0x01; LANES]);
    const HIGHS: usize = usize::from_le_bytes([0x80; LANES]);
    const TARGET: usize = usize::from_le_bytes([b'\n'; LANES]);
    let mut i = 0;
    while i + LANES <= bytes.len() {
        let chunk: [u8; LANES] = bytes[i..i + LANES]
            .try_into()
            .expect("chunk is exactly LANES bytes");
        let word = usize::from_le_bytes(chunk) ^ TARGET;
        let matches = word.wrapping_sub(ONES) & !word & HIGHS;
        if matches != 0 {
            return Some(i + matches.trailing_zeros() as usize / 8);
        }
        i += LANES;
    }
    bytes[i..].iter().position(|&b| b == b'\n').map(|p| i + p)
}

/// Odd 64-bit constants with balanced bit populations (the wyhash secrets);
/// any such constants do — they only keep zero input words from zeroing a
/// multiply.
const HASH_KEYS: [u64; 4] = [
    0x2d35_8dcc_aa6c_78a5,
    0x8bb8_4b93_962e_acc9,
    0x4b33_a62e_d433_d4a3,
    0x4d5a_2da5_1de1_aa47,
];

/// Inputs longer than this many bytes take [`hash128`]'s four-lane bulk loop;
/// inputs of at most this many keep the one-lane construction and its
/// values. On a 2-core x86-64 host the two paths cost the same near 200–230
/// bytes, so up to here the one lane is never the slower. Log lines cross
/// it too: 58 % of the benchmark's seed-1 `batch-distinct` lines are longer
/// (`batch-dup` and the serve pool have none). A whole number of 64-byte
/// blocks, so [`Hasher128`] switches paths on a block edge.
const WIDE_ABOVE: usize = 256;
const _: () = assert!(WIDE_ABOVE.is_multiple_of(64));

/// Where the bulk loop's four lanes start: the key pairs rotated, so lane 0
/// starts where the one-lane path does and no two lanes start alike.
const LANE_SEEDS: [(u64, u64); 4] = {
    let [k0, k1, k2, k3] = HASH_KEYS;
    [(k0, k1), (k1, k2), (k2, k3), (k3, k0)]
};

/// The folded 64×64→128 multiply every wyhash-family hash is built from: the
/// two halves of the full product XORed together, so every input bit reaches
/// every output bit in one instruction pair.
#[inline(always)]
fn fold_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The two little-endian words of a 16-byte block.
#[inline(always)]
fn words(block: &[u8; 16]) -> (u64, u64) {
    let (lo, hi) = block.split_at(8);
    (
        u64::from_le_bytes(lo.try_into().expect("8-byte half")),
        u64::from_le_bytes(hi.try_into().expect("8-byte half")),
    )
}

/// One 16-byte step of [`hash128`]: each accumulator absorbs both words of
/// the block through one folded multiply, in opposite pairings.
#[inline(always)]
fn step((a, b): (u64, u64), (lo, hi): (u64, u64)) -> (u64, u64) {
    let [_, _, k2, k3] = HASH_KEYS;
    (
        fold_multiply(lo ^ k2, hi ^ a),
        fold_multiply(hi ^ k3, lo ^ b),
    )
}

/// One 64-byte block of the bulk loop: lane `i` steps over the block's
/// `i`-th 16 bytes. The four steps share no data, so their multiplies
/// overlap instead of each waiting on the one before.
#[inline(always)]
fn absorb([l0, l1, l2, l3]: [(u64, u64); 4], block: &[u8; 64]) -> [(u64, u64); 4] {
    let (pieces, _) = block.as_chunks::<16>();
    // Spelled out: `array::from_fn` is not always inlined, and then every
    // lane round-trips through memory.
    [
        step(l0, words(&pieces[0])),
        step(l1, words(&pieces[1])),
        step(l2, words(&pieces[2])),
        step(l3, words(&pieces[3])),
    ]
}

/// Ends the bulk loop: lane 0 absorbs lanes 1, 2 and 3, in that order, as
/// one block each, so lanes that trade contents hash apart.
#[inline(always)]
fn fold_lanes([first, rest @ ..]: [(u64, u64); 4]) -> (u64, u64) {
    rest.into_iter().fold(first, step)
}

/// The one-lane path from `state` to the end: one step per whole 16-byte
/// block of `bytes`, the rest (possibly empty) zero-padded to one more
/// block, then the total length folded in.
#[inline(always)]
fn finish(state: (u64, u64), bytes: &[u8], len: u64) -> u128 {
    let [k0, k1, k2, k3] = HASH_KEYS;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let state = blocks
        .iter()
        .fold(state, |state, block| step(state, words(block)));
    let mut block = [0u8; 16];
    block[..tail.len()].copy_from_slice(tail);
    let (a, b) = step(state, words(&block));
    let high = fold_multiply(a ^ k0, b ^ len ^ k1);
    let low = fold_multiply(b ^ k2, a ^ len ^ k3);
    u128::from(high) << 64 | u128::from(low)
}

/// A 128-bit hash of raw bytes (the wyhash / rapidhash construction: two
/// accumulators, each absorbing both words of a 16-byte step through one
/// folded multiply, in opposite pairings so a word that blinds one
/// accumulator's multiply still reaches the other).
///
/// Up to 256 bytes (`WIDE_ABOVE`) it is one lane, 16 bytes per step. A
/// longer input runs four such lanes side by side over each whole 64-byte
/// block, since one lane waits on its last multiply before every step; the
/// lanes then fold in a fixed order into one, which continues over the
/// rest. Either way the tail is zero-padded to a full step — an empty tail
/// still takes one — and the length is folded into the finish, so inputs
/// that differ only in length or in trailing NULs hash apart.
///
/// The output is a **pure function of the bytes**: there is no per-process
/// seed, so anything keyed by it reproduces across runs and hosts. Like the
/// canonical fingerprint it is not collision-resistant against an
/// adversary; the engine uses it where a 2⁻¹²⁸ accidental collision is the
/// accepted risk: the entry memo of `core::fused` (raw bytes, and token
/// streams through [`token_key`](crate::token::token_key)) and, through
/// [`Hasher128`], the snapshot store's log identities (`core::incremental`).
pub fn hash128(bytes: &[u8]) -> u128 {
    let len = bytes.len() as u64;
    if bytes.len() <= WIDE_ABOVE {
        return finish(LANE_SEEDS[0], bytes, len);
    }
    let (blocks, rest) = bytes.as_chunks::<64>();
    let lanes = blocks.iter().fold(LANE_SEEDS, absorb);
    finish(fold_lanes(lanes), rest, len)
}

/// [`hash128`] of input that arrives in pieces: however the bytes are split
/// across [`update`](Hasher128::update) calls, [`finish`](Hasher128::finish)
/// equals `hash128` of them all. Which path applies is known only once more
/// than 256 bytes have arrived, so it holds back the first 256; after that,
/// only the `len % 64` bytes of the block in progress.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    lanes: [(u64, u64); 4],
    held: [u8; WIDE_ABOVE],
    len: u64,
}

impl Default for Hasher128 {
    fn default() -> Hasher128 {
        Hasher128 {
            lanes: LANE_SEEDS,
            held: [0; WIDE_ABOVE],
            len: 0,
        }
    }
}

// `#[inline]` compiles these where they are called: emitted here, they
// moved this crate's codegen-unit split and recompiled the lexer.
impl Hasher128 {
    /// Absorbs `bytes`, stepping the lanes over every block they complete.
    #[inline]
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.len <= WIDE_ABOVE as u64 {
            let held = self.len as usize;
            let (head, rest) = bytes.split_at(bytes.len().min(WIDE_ABOVE - held));
            self.held[held..held + head.len()].copy_from_slice(head);
            self.len += head.len() as u64;
            if rest.is_empty() {
                return;
            }
            // The input is wide: the held bytes are its first whole blocks.
            let (blocks, _) = self.held.as_chunks::<64>();
            self.lanes = blocks.iter().fold(LANE_SEEDS, absorb);
            bytes = rest;
        }
        let held = (self.len % 64) as usize;
        self.len += bytes.len() as u64;
        // Top up a held partial block; the rest then starts on a block edge.
        let (head, bytes) = bytes.split_at(bytes.len().min((64 - held) % 64));
        self.held[held..held + head.len()].copy_from_slice(head);
        if held + head.len() == 64 {
            let block = self.held.first_chunk().expect("a whole block");
            self.lanes = absorb(self.lanes, block);
        }
        let (blocks, rest) = bytes.as_chunks::<64>();
        self.lanes = blocks.iter().fold(self.lanes, absorb);
        self.held[..rest.len()].copy_from_slice(rest);
    }

    /// The [`hash128`] of every byte absorbed so far.
    #[inline]
    pub fn finish(&self) -> u128 {
        if self.len <= WIDE_ABOVE as u64 {
            return finish(LANE_SEEDS[0], &self.held[..self.len as usize], self.len);
        }
        let held = (self.len % 64) as usize;
        finish(fold_lanes(self.lanes), &self.held[..held], self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Up to 1 200 bytes cut at up to seven random points, so pieces land
        /// empty, inside one block, on block edges and across several, on
        /// both sides of the 256 bytes where the four-lane path starts.
        #[test]
        fn streaming_hash_equals_one_shot_at_any_split(
            bytes in prop::collection::vec(0u8..=255, 0..1201),
            cuts in prop::collection::vec(0usize..1201, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|cut| cut % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = Hasher128::default();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                hasher.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(hasher.finish(), hash128(&bytes));
        }
    }

    /// Every scanner must agree with its scalar classifier at every start
    /// offset of a buffer exercising all 256 byte values in every lane
    /// position.
    fn exercise(scan: impl Fn(&[u8], usize) -> usize, member: impl Fn(u8) -> bool) {
        let mut buffer = Vec::new();
        for value in 0u16..=255 {
            buffer.push(value as u8);
            // Shift lane alignment so each value lands in several lanes.
            if value % 3 == 0 {
                buffer.push(b'x');
            }
        }
        // Long member runs so the SWAR stride actually engages.
        buffer.extend(std::iter::repeat_n(b'a', 40));
        buffer.push(b'!');
        buffer.extend(std::iter::repeat_n(b' ', 40));
        buffer.push(0xC3);
        for start in 0..buffer.len() {
            let mut expected = start;
            while expected < buffer.len() && member(buffer[expected]) {
                expected += 1;
            }
            assert_eq!(
                scan(&buffer, start),
                expected,
                "divergence at start {start} (byte {:#x})",
                buffer[start]
            );
        }
    }

    #[test]
    fn whitespace_scan_matches_scalar() {
        exercise(skip_whitespace, is_whitespace);
    }

    #[test]
    fn name_scan_matches_scalar() {
        exercise(scan_name, is_name_char);
    }

    #[test]
    fn local_scan_matches_scalar() {
        exercise(scan_local, |b| {
            is_name_char(b) || b == b'.' || b == b'%' || b == b'\\'
        });
    }

    #[test]
    fn digit_scan_matches_scalar() {
        exercise(scan_digits, |b| b.is_ascii_digit());
    }

    #[test]
    fn iri_scan_matches_scalar() {
        exercise(scan_iri_body, is_iri_body_char);
    }

    #[test]
    fn string_scan_matches_scalar_in_all_modes() {
        for quote in [b'"', b'\''] {
            for newline in [false, true] {
                exercise(
                    |bytes, start| scan_string_plain(bytes, start, quote, newline),
                    |b| b != quote && b != b'\\' && (!newline || (b != b'\n' && b != b'\r')),
                );
            }
        }
    }

    #[test]
    fn counts_newlines_and_reports_last() {
        assert_eq!(count_newlines(b""), (0, None));
        assert_eq!(count_newlines(b"abc"), (0, None));
        assert_eq!(count_newlines(b"a\nb\nc"), (2, Some(3)));
        let long = [b"x".repeat(20), b"\n".to_vec(), b"y".repeat(20)].concat();
        assert_eq!(count_newlines(&long), (1, Some(20)));
    }

    #[test]
    fn find_newline_agrees_with_naive_search_at_every_offset() {
        for len in 0..40 {
            let mut bytes = vec![b'x'; len];
            assert_eq!(find_newline(&bytes), None, "len {len}");
            for position in 0..len {
                bytes.iter_mut().for_each(|b| *b = b'x');
                bytes[position] = b'\n';
                assert_eq!(find_newline(&bytes), Some(position), "len {len}");
            }
        }
    }

    #[test]
    fn find_newline_reports_first_of_several() {
        assert_eq!(find_newline(b"ab\ncd\nef"), Some(2));
    }

    #[test]
    fn hash128_separates_lengths_last_bytes_and_trailing_nuls() {
        // Every length around the 16-byte step boundaries and the start of
        // the four-lane path, and for each one the three near-misses a
        // padded, length-blind hash would conflate.
        let mut keys = std::collections::HashSet::new();
        for len in [
            0usize, 1, 15, 16, 17, 31, 32, 33, 255, 256, 257, 319, 320, 321,
        ] {
            let base: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let key = hash128(&base);
            assert!(keys.insert(key), "length {len} collides with a shorter one");
            let mut longer = base.clone();
            longer.push(b'a' + (len % 26) as u8);
            assert_ne!(hash128(&longer), key, "length {len} vs {}", len + 1);
            let mut padded = base.clone();
            padded.push(0);
            assert_ne!(hash128(&padded), key, "trailing NUL at length {len}");
            assert_ne!(hash128(&padded), hash128(&longer));
            if let Some(last) = base.len().checked_sub(1) {
                let mut flipped = base.clone();
                flipped[last] ^= 1;
                assert_ne!(hash128(&flipped), key, "last byte at length {len}");
            }
        }
        // Zeros of different lengths share every padded word; only the
        // folded length tells them apart.
        let zeros = [0u8; 300];
        let distinct: std::collections::HashSet<u128> =
            (0..=300).map(|len| hash128(&zeros[..len])).collect();
        assert_eq!(distinct.len(), 301);
    }

    #[test]
    fn hash128_is_a_pure_function_of_the_bytes() {
        // Pinned values: no per-process seed, no dependence on the host's
        // endianness or word size. Reports keyed by it must reproduce.
        // (Cross-checked against an independent big-integer transcription.)
        assert_eq!(hash128(b""), 0x1b9a_42f3_8815_cea5_3734_1582_10ce_8d2e);
        assert_eq!(
            hash128(b"SELECT ?x WHERE { ?x a <http://example.org/C> }"),
            0xc942_d447_14c3_efc1_ad30_9dd0_bab6_537e
        );
        let line = b"ASK { ?s ?p ?o }".to_vec();
        assert_eq!(hash128(&line), hash128(&line.clone()));
    }

    /// 204 800 lines that differ in a few bytes at varying offsets, the way
    /// real log entries do, each with `pad(i, j)` inside its IRI. No two
    /// may share a key, and their low twelve bits (what a 4 096-slot table
    /// indexes by) must spread: a slot load far from the mean of 50 would
    /// mean the low bits are weak.
    fn sweep_generated_log_lines(pad: impl Fn(u32, u32) -> String) {
        let mut keys = std::collections::HashSet::new();
        let mut slots = vec![0u32; 1 << 12];
        for i in 0..3_200u32 {
            for j in 0..64u32 {
                let line = format!(
                    "SELECT ?v{j} WHERE {{ ?v{j} <http://example.org/{}p{i}> ?o . FILTER(?o > {}) }}",
                    pad(i, j),
                    i ^ j
                );
                let key = hash128(line.as_bytes());
                assert!(keys.insert(key), "collision on {line}");
                slots[(key & 0xfff) as usize] += 1;
            }
        }
        let (min, max) = (slots.iter().min().unwrap(), slots.iter().max().unwrap());
        assert!(*min >= 20 && *max <= 90, "slot loads {min}..{max}");
    }

    #[test]
    fn hash128_does_not_collide_on_generated_log_lines() {
        sweep_generated_log_lines(|_, _| String::new());
    }

    #[test]
    fn hash128_does_not_collide_on_generated_long_log_lines() {
        // 250–400 bytes: a few lines stay on the one-lane path, the rest
        // take the four lanes, and the differing bytes land in varying lanes.
        sweep_generated_log_lines(|i, j| "segment/".repeat(23 + ((i + j) % 17) as usize));
    }

    /// 320 bytes: five whole 64-byte blocks, so every byte goes through a
    /// lane of the bulk loop.
    fn wide_input() -> Vec<u8> {
        (0..320u32).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn hash128_pins_the_four_lane_path() {
        // Cross-checked against an independent big-integer transcription
        // of both paths, like the one-lane pins above.
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        assert_eq!(hash128(&bytes), 0xe7e8_9f01_2bd2_5b17_77ed_b3fe_ad91_6a60);
    }

    #[test]
    fn hash128_changes_under_every_single_bit_flip_of_a_wide_input() {
        let bytes = wide_input();
        let key = hash128(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(hash128(&flipped), key, "bit {bit}");
        }
    }

    #[test]
    fn hash128_separates_swapped_sub_blocks() {
        // Every pair of the twenty 16-byte sub-blocks: across lanes within
        // one block (0 and 1), within one lane across blocks (0 and 4), and
        // everything between. The fold of the lanes is order-sensitive and
        // so is each lane, so no swap may go unnoticed.
        let bytes = wide_input();
        let key = hash128(&bytes);
        for first in 0..20 {
            for second in first + 1..20 {
                let mut swapped = bytes.clone();
                let (head, tail) = swapped.split_at_mut(second * 16);
                head[first * 16..first * 16 + 16].swap_with_slice(&mut tail[..16]);
                assert_ne!(hash128(&swapped), key, "sub-blocks {first} and {second}");
            }
        }
    }
}
