//! Flat tallies as data: [`tally!`](crate::tally!) takes a record's field
//! list once and derives everything that has to agree with it.
//!
//! Every table of the paper is a commutative fold of per-query counters. A
//! *flat* tally is a struct whose fields are all counters of one of two
//! kinds:
//!
//! * `sum` — an additive count: `merge` adds, `scale(n)` multiplies by `n`;
//! * `max` — an extremum: `merge` keeps the larger value, `scale` leaves it
//!   alone (a maximum is idempotent under repeated adds of the same value).
//!
//! Field types are `u64`, `u32`, `usize` and `[u64; N]` (the [`Counter`]
//! impls). [`Tally`] is the ordered field view the wire codec reads: every
//! scalar is one `u64`, in declaration order, and an array is `N` of them.
//! Records with maps, options or capped lists (`OpSetTally`, `PathTally`,
//! `ErrorTally`, …) are not flat and stay hand-written.

/// Receives a tally's counters in declaration order (the wire encoder).
pub trait CounterSink {
    /// Appends one counter.
    fn put(&mut self, value: u64);
}

/// Yields a tally's counters in declaration order (the wire decoder).
pub trait CounterSource {
    /// What a failed read reports.
    type Error;

    /// Reads the next counter.
    fn take(&mut self) -> Result<u64, Self::Error>;

    /// The error for a `value` just read that does not fit its field.
    fn overflow(&self, value: u64) -> Self::Error;
}

/// One field type of a flat tally.
pub trait Counter: Sized {
    /// `self += other`, element-wise for arrays: the `sum` merge.
    fn add(&mut self, other: &Self);

    /// `self *= times`, element-wise for arrays: the `sum` scale.
    fn mul(&mut self, times: u64);

    /// Writes the field's counters.
    fn put(&self, sink: &mut impl CounterSink);

    /// Reads the field's counters.
    fn take<S: CounterSource>(source: &mut S) -> Result<Self, S::Error>;
}

/// Scalars: one varint each on the wire; a `u32` or `usize` is
/// range-checked on the way in, and by `scale` (`u64` is the identity).
/// `add` and `mul` are `#[inline]`: they are not generic, and every
/// generated `merge` / `scale` in another crate calls them per field.
macro_rules! scalar_counter {
    ($($ty:ty),*) => {$(
        impl Counter for $ty {
            #[inline]
            fn add(&mut self, other: &$ty) {
                *self += other;
            }

            #[inline]
            fn mul(&mut self, times: u64) {
                *self = <$ty>::try_from(*self as u64 * times).expect("scaled counter fits its field");
            }

            fn put(&self, sink: &mut impl CounterSink) {
                sink.put(*self as u64);
            }

            fn take<S: CounterSource>(source: &mut S) -> Result<$ty, S::Error> {
                let value = source.take()?;
                <$ty>::try_from(value).map_err(|_| source.overflow(value))
            }
        }
    )*};
}

scalar_counter!(u64, u32, usize);

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

/// A flat tally declared with [`tally!`](crate::tally!): its ordered field
/// view, for code generic over tallies (the wire codec). Its folds are the
/// inherent `merge` and `scale`.
pub trait Tally: Sized {
    /// Writes every counter, in declaration order.
    fn put_fields(&self, sink: &mut impl CounterSink);

    /// Reads every counter, in declaration order.
    fn take_fields<S: CounterSource>(source: &mut S) -> Result<Self, S::Error>;
}

/// Declares a flat tally: the struct (attributes and docs pass through),
/// inherent `merge` and `scale`, and a [`Tally`](crate::tally::Tally) impl.
/// Each field is tagged `sum` or `max` (see the [module docs](mod@crate::tally));
/// a field is written once and reaches merge, scale and the wire by
/// construction.
///
/// ```
/// use sparqlog_algebra::tally;
///
/// tally! {
///     /// Answer sizes of a set of queries.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Answers {
///         /// Queries seen.
///         sum pub queries: u64,
///         /// Queries with exactly 0, 1 and 2 answers.
///         sum pub small: [u64; 3],
///         /// The largest answer seen.
///         max pub largest: u32,
///     }
/// }
///
/// // One query with one answer, seen three times.
/// let mut answers = Answers { queries: 1, small: [0, 1, 0], largest: 1 };
/// answers.scale(3);
/// answers.merge(&Answers { queries: 1, small: [0, 0, 0], largest: 40 });
/// assert_eq!(answers, Answers { queries: 4, small: [0, 3, 0], largest: 40 });
/// ```
#[macro_export]
macro_rules! tally {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $kind:ident $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $name {
            /// Merges another tally into this one: `sum` fields add, `max`
            /// fields keep the larger value.
            pub fn merge(&mut self, other: &$name) {
                $($crate::tally!(@merge $kind, self.$field, other.$field);)*
            }

            /// Multiplies every `sum` field by `times`, leaving `max` fields
            /// untouched: one observation scaled by `times` equals `times`
            /// observations (the fused engine's occurrence-weighted fold).
            pub fn scale(&mut self, times: u64) {
                $($crate::tally!(@scale $kind, self.$field, times);)*
            }
        }

        impl $crate::tally::Tally for $name {
            fn put_fields(&self, sink: &mut impl $crate::tally::CounterSink) {
                $($crate::tally::Counter::put(&self.$field, sink);)*
            }

            fn take_fields<S: $crate::tally::CounterSource>(
                source: &mut S,
            ) -> ::core::result::Result<$name, S::Error> {
                // Struct-literal fields evaluate in the order written.
                ::core::result::Result::Ok($name {
                    $($field: $crate::tally::Counter::take(source)?,)*
                })
            }
        }
    };
    (@merge sum, $mine:expr, $theirs:expr) => {
        $crate::tally::Counter::add(&mut $mine, &$theirs)
    };
    (@merge max, $mine:expr, $theirs:expr) => {
        $mine = ::core::cmp::max($mine, $theirs)
    };
    (@scale sum, $mine:expr, $times:expr) => {
        $crate::tally::Counter::mul(&mut $mine, $times)
    };
    (@scale max, $mine:expr, $times:expr) => {};
}
