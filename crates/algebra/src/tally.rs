//! Tallies as data: [`tally!`](crate::tally!) takes a record's field list
//! once and derives everything that has to agree with it.
//!
//! Every table of the paper is a commutative fold of per-query counters. A
//! tally is a struct whose every field is tagged with one of five kinds:
//!
//! * `sum` — an additive count: `merge` adds, `scale(n)` multiplies by `n`.
//!   Its type is a [`Counter`]: `u64`, `u32`, `usize`, `[u64; N]`, a
//!   `BTreeMap` of counters (key-wise sum) or another tally;
//! * `max` — an extremum: `merge` keeps the larger value, `scale` leaves it
//!   alone (a maximum is idempotent under repeated adds of the same value).
//!   On an `Option`, `None` sorts below every `Some`;
//! * `min` — the smaller of two `Option`s, where `None` is the identity;
//!   `scale` leaves it alone;
//! * `list(cap)` — the `cap` earliest `(code, position)` exemplars, sorted by
//!   `(position, code)`: `merge` concatenates, sorts and truncates, and
//!   `scale(n)` repeats each exemplar `n` times first, so that it equals `n`
//!   merges;
//! * `keep` — on the wire, but never merged or scaled (a label): `merge`
//!   keeps the left value.
//!
//! [`Field`] is the wire view the codec reads, in declaration order: a
//! scalar is one varint, an array `N` of them, an `Option<usize>` one varint
//! (`0` for `None`, `v + 1` for `Some(v)`), a string its length and bytes, a
//! map or a list its length and then its entries. A map key is a
//! [`MapKey`]; an exemplar is a raw code byte and a varint position.

use std::collections::BTreeMap;

/// Receives a tally's fields in declaration order (the wire encoder).
pub trait CounterSink {
    /// Appends one counter.
    fn put(&mut self, value: u64);

    /// Appends one raw byte (a wire code).
    fn put_byte(&mut self, value: u8);

    /// Appends a string.
    fn put_str(&mut self, value: &str);
}

/// Yields a tally's fields in declaration order (the wire decoder).
pub trait CounterSource {
    /// What a failed read reports.
    type Error;

    /// Reads the next counter.
    fn take(&mut self) -> Result<u64, Self::Error>;

    /// Reads one raw byte (a wire code).
    fn take_byte(&mut self) -> Result<u8, Self::Error>;

    /// Reads a string.
    fn take_str(&mut self) -> Result<String, Self::Error>;

    /// The error for a `value` just read that does not fit its field.
    fn overflow(&self, value: u64) -> Self::Error;

    /// The error for a `value` just read that is outside its field's domain
    /// (an unknown code, a repeated map key).
    fn invalid(&self, what: &'static str, value: u64) -> Self::Error;
}

/// One field type of a tally on the wire.
pub trait Field: Sized {
    /// Writes the field.
    fn put(&self, sink: &mut impl CounterSink);

    /// Reads the field.
    fn take<S: CounterSource>(source: &mut S) -> Result<Self, S::Error>;
}

/// The type of a `sum` field.
pub trait Counter: Field {
    /// `self += other`, element-wise for arrays and key-wise for maps.
    fn add(&mut self, other: &Self);

    /// `self *= times`, element-wise for arrays and value-wise for maps.
    fn mul(&mut self, times: u64);
}

/// Scalars: one varint each on the wire; a `u32` or `usize` is
/// range-checked on the way in, and by `scale` (`u64` is the identity).
/// `add` and `mul` are `#[inline]`: they are not generic, and every
/// generated `merge` / `scale` in another crate calls them per field.
macro_rules! scalar_counter {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn put(&self, sink: &mut impl CounterSink) {
                sink.put(*self as u64);
            }

            fn take<S: CounterSource>(source: &mut S) -> Result<$ty, S::Error> {
                let value = source.take()?;
                <$ty>::try_from(value).map_err(|_| source.overflow(value))
            }
        }

        impl Counter for $ty {
            #[inline]
            fn add(&mut self, other: &$ty) {
                *self += other;
            }

            #[inline]
            fn mul(&mut self, times: u64) {
                *self = <$ty>::try_from(*self as u64 * times).expect("scaled counter fits its field");
            }
        }
    )*};
}

scalar_counter!(u64, u32, usize);

impl<const N: usize> Field for [u64; N] {
    fn put(&self, sink: &mut impl CounterSink) {
        for &count in self {
            sink.put(count);
        }
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<[u64; N], S::Error> {
        let mut counts = [0; N];
        for count in &mut counts {
            *count = source.take()?;
        }
        Ok(counts)
    }
}

impl<const N: usize> Counter for [u64; N] {
    fn add(&mut self, other: &[u64; N]) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            *mine += theirs;
        }
    }

    fn mul(&mut self, times: u64) {
        for count in self {
            *count *= times;
        }
    }
}

/// `0` for `None`, `v + 1` for `Some(v)`, in one varint.
impl Field for Option<usize> {
    fn put(&self, sink: &mut impl CounterSink) {
        sink.put(self.map_or(0, |value| value as u64 + 1));
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<Option<usize>, S::Error> {
        match source.take()? {
            0 => Ok(None),
            value => usize::try_from(value - 1)
                .map(Some)
                .map_err(|_| source.overflow(value)),
        }
    }
}

impl Field for String {
    fn put(&self, sink: &mut impl CounterSink) {
        sink.put_str(self);
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<String, S::Error> {
        source.take_str()
    }
}

/// A `list` field: `(code, position)` exemplars, each a raw code byte and a
/// varint position. The code is stored raw, so a code this build does not
/// know (from a newer producer) decodes and re-encodes losslessly.
impl Field for Vec<(u8, u64)> {
    fn put(&self, sink: &mut impl CounterSink) {
        sink.put(self.len() as u64);
        for &(code, position) in self {
            sink.put_byte(code);
            sink.put(position);
        }
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<Vec<(u8, u64)>, S::Error> {
        let length = <usize as Field>::take(source)?;
        let mut list = Vec::with_capacity(length.min(1 << 8));
        for _ in 0..length {
            let code = source.take_byte()?;
            list.push((code, source.take()?));
        }
        Ok(list)
    }
}

/// The `list(cap)` merge: concatenate, sort by `(position, code)`, keep the
/// first `cap`.
pub fn merge_list(list: &mut Vec<(u8, u64)>, other: &[(u8, u64)], cap: usize) {
    list.extend_from_slice(other);
    list.sort_unstable_by_key(|&(code, position)| (position, code));
    list.truncate(cap);
}

/// The `list(cap)` scale: `times` merges of the list into an empty one (at
/// most `cap` of them: the copies past `cap` would be cut).
pub fn scale_list(list: &mut Vec<(u8, u64)>, times: u64, cap: usize) {
    let once = std::mem::take(list);
    for _ in 0..times.min(cap as u64) {
        merge_list(list, &once, cap);
    }
}

/// A map key on the wire.
///
/// `V` is the map's value type. It is there for the orphan rule: the crate
/// that owns a map's value type can give a key type from a crate that does
/// not depend on this one its wire form.
pub trait MapKey<V>: Copy + Ord {
    /// The `what` of the decode error for a key that repeats.
    const DUPLICATE: &'static str;

    /// The key's wire value, which a repeated key's decode error reports.
    fn code(self) -> u64;

    /// Writes the key.
    fn put(self, sink: &mut impl CounterSink);

    /// Reads one key.
    fn take<S: CounterSource>(source: &mut S) -> Result<Self, S::Error>;
}

/// A varint key; the one map with such keys holds cycle lengths.
impl<V> MapKey<V> for usize {
    const DUPLICATE: &'static str = "duplicate cycle-length key";

    fn code(self) -> u64 {
        self as u64
    }

    fn put(self, sink: &mut impl CounterSink) {
        Field::put(&self, sink);
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<usize, S::Error> {
        Field::take(source)
    }
}

/// The length, then each key and its value; a key that repeats is invalid.
impl<K: MapKey<V>, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, sink: &mut impl CounterSink) {
        sink.put(self.len() as u64);
        for (key, value) in self {
            key.put(sink);
            value.put(sink);
        }
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<BTreeMap<K, V>, S::Error> {
        let length = <usize as Field>::take(source)?;
        let mut map = BTreeMap::new();
        for _ in 0..length {
            let key = K::take(source)?;
            let value = V::take(source)?;
            if map.insert(key, value).is_some() {
                return Err(source.invalid(K::DUPLICATE, key.code()));
            }
        }
        Ok(map)
    }
}

impl<K: MapKey<V>, V: Counter + Default> Counter for BTreeMap<K, V> {
    fn add(&mut self, other: &BTreeMap<K, V>) {
        for (key, value) in other {
            self.entry(*key).or_default().add(value);
        }
    }

    fn mul(&mut self, times: u64) {
        for value in self.values_mut() {
            value.mul(times);
        }
    }
}

/// Declares a tally: the struct (attributes and docs pass through),
/// inherent `merge` and `scale`, and [`Field`](crate::tally::Field) and
/// [`Counter`](crate::tally::Counter) impls, so that a tally nests in
/// another as a `sum` field. Each field is public and tagged `sum`, `max`,
/// `min`, `list(cap)` or `keep` (see the [module docs](mod@crate::tally)); a
/// field is written once and reaches merge, scale and the wire by
/// construction.
///
/// ```
/// use sparqlog_algebra::tally;
///
/// tally! {
///     /// Answer sizes of a set of queries.
///     #[derive(Debug, Clone, Default, PartialEq, Eq)]
///     pub struct Answers {
///         /// Where the queries came from.
///         keep pub label: String,
///         /// Queries seen, and those with exactly 0, 1 and 2 answers.
///         sum pub queries: u64,
///         sum pub small: [u64; 3],
///         /// The largest answer, and the smallest non-empty one.
///         max pub largest: u32,
///         min pub smallest: Option<usize>,
///         /// The first two failed queries, as `(code, position)`.
///         list(2) pub failures: Vec<(u8, u64)>,
///     }
/// }
///
/// // One query with one answer, seen three times; then another log.
/// let mut answers = Answers { queries: 1, small: [0, 1, 0], largest: 1, ..Answers::default() };
/// answers.smallest = Some(1);
/// answers.scale(3);
/// answers.merge(&Answers {
///     label: "other".to_string(),
///     queries: 1,
///     largest: 40,
///     failures: vec![(7, 0)],
///     ..Answers::default()
/// });
/// assert_eq!((answers.queries, answers.small, answers.largest), (4, [0, 3, 0], 40));
/// assert_eq!((answers.smallest, answers.label.as_str()), (Some(1), ""));
/// assert_eq!(answers.failures, [(7, 0)]);
/// ```
#[macro_export]
macro_rules! tally {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $kind:ident $(($arg:expr))? pub $field:ident: $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $name {
            /// Merges another tally into this one, field by field as each
            /// field's kind says (`sum` adds, `max` / `min` keep the
            /// extremum, `list` keeps the earliest, `keep` keeps this one).
            pub fn merge(&mut self, other: &$name) {
                $($crate::tally!(@merge $kind $(($arg))?, self.$field, other.$field);)*
            }

            /// Multiplies every `sum` field by `times` and repeats every
            /// `list` entry `times` times, leaving the other kinds untouched:
            /// one observation scaled by `times` equals `times` observations
            /// (the fused engine's occurrence-weighted fold).
            pub fn scale(&mut self, times: u64) {
                $($crate::tally!(@scale $kind $(($arg))?, self.$field, times);)*
            }
        }

        impl $crate::tally::Field for $name {
            fn put(&self, sink: &mut impl $crate::tally::CounterSink) {
                $($crate::tally::Field::put(&self.$field, sink);)*
            }

            fn take<S: $crate::tally::CounterSource>(
                source: &mut S,
            ) -> ::core::result::Result<$name, S::Error> {
                // Struct-literal fields evaluate in the order written.
                ::core::result::Result::Ok($name {
                    $($field: $crate::tally::Field::take(source)?,)*
                })
            }
        }

        impl $crate::tally::Counter for $name {
            #[inline]
            fn add(&mut self, other: &$name) {
                self.merge(other);
            }

            #[inline]
            fn mul(&mut self, times: u64) {
                self.scale(times);
            }
        }
    };
    (@merge sum, $mine:expr, $theirs:expr) => {
        $crate::tally::Counter::add(&mut $mine, &$theirs)
    };
    (@merge max, $mine:expr, $theirs:expr) => {
        $mine = ::core::cmp::max($mine, $theirs)
    };
    (@merge min, $mine:expr, $theirs:expr) => {
        $mine = $mine.into_iter().chain($theirs).min()
    };
    (@merge list($cap:expr), $mine:expr, $theirs:expr) => {
        $crate::tally::merge_list(&mut $mine, &$theirs, $cap)
    };
    (@merge keep, $mine:expr, $theirs:expr) => {};
    (@scale sum, $mine:expr, $times:expr) => {
        $crate::tally::Counter::mul(&mut $mine, $times)
    };
    (@scale list($cap:expr), $mine:expr, $times:expr) => {
        $crate::tally::scale_list(&mut $mine, $times, $cap)
    };
    // `max`, `min` and `keep` are idempotent under repetition.
    (@scale $kind:ident, $mine:expr, $times:expr) => {};
}
