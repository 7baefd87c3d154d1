//! A bump arena for batch-scoped ASTs.
//!
//! The fused analysis pipeline parses thousands of queries whose ASTs live
//! only long enough to be fingerprinted (and, on a cache miss, analysed).
//! Allocating every node and string individually — and tearing each down
//! again — dominated the parse stage once analysis itself was memoized.
//! [`Arena`] replaces that churn with pointer-bump allocation into large
//! chunks: a worker parses into its arena, extracts the fingerprint, and
//! calls [`Arena::reset`] — one pointer rewind — before the next entry.
//! Steady state performs *no* global-allocator traffic at all: the chunk is
//! retained across resets and simply refilled.
//!
//! # Lifetime rules
//!
//! Everything handed out borrows the arena (`&'a T`, `&'a str`,
//! `&'a [T]`). [`Arena::reset`] takes `&mut self`, so the borrow checker
//! statically guarantees no slice survives a reset: what must outlive the
//! batch (a fingerprint, an analysis record) is computed before it.
//!
//! # Safety
//!
//! Only `Copy` types may be allocated ([`Arena::alloc`],
//! [`ArenaVec`]): nothing in an arena is ever dropped, so types owning
//! heap resources would leak. The borrowed AST is designed around this —
//! every node type is `Copy`. All `unsafe` in the parser crate is confined
//! to this module; the rest stays `deny(unsafe_code)`-checked.

#![allow(unsafe_code)]

use std::alloc::{alloc, dealloc, Layout};
use std::cell::{Cell, RefCell};
use std::ptr::NonNull;

/// Default size of the first chunk. Typical log queries produce a few
/// kilobytes of AST; one chunk of this size serves whole batches without
/// ever growing.
const INITIAL_CHUNK_BYTES: usize = 64 * 1024;

/// Chunks larger than this are released by [`Arena::reset`] instead of
/// retained, so one pathological query cannot pin memory for the rest of a
/// worker's life.
const MAX_RETAINED_BYTES: usize = 8 * 1024 * 1024;

/// One raw allocation owned by the arena.
struct Chunk {
    ptr: NonNull<u8>,
    size: usize,
}

impl Chunk {
    fn layout(size: usize) -> Layout {
        // 16-byte alignment covers every type the parser allocates; per-
        // allocation alignment is still rounded up individually below.
        Layout::from_size_align(size, 16).expect("valid chunk layout")
    }

    fn new(size: usize) -> Chunk {
        let layout = Chunk::layout(size);
        // SAFETY: the layout has non-zero size (callers never request 0).
        let raw = unsafe { alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        Chunk { ptr, size }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: `ptr` was allocated with exactly this layout in `new`.
        unsafe { dealloc(self.ptr.as_ptr(), Chunk::layout(self.size)) };
    }
}

/// A chunked bump allocator handing out references tied to its own borrow.
///
/// See the [module docs](self) for the lifetime and `Copy`-only rules.
pub struct Arena {
    /// Next free byte in the current (last) chunk.
    head: Cell<*mut u8>,
    /// One past the last byte of the current chunk.
    end: Cell<*mut u8>,
    /// All live chunks; the last one is the active bump target.
    chunks: RefCell<Vec<Chunk>>,
    /// Bytes handed out since creation or the last [`Arena::reset`]
    /// (excluding alignment padding) — the measurement hook behind the
    /// benchmark's `parser.arena_bytes_per_entry`.
    used: Cell<usize>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("used", &self.used.get())
            .field("capacity", &self.capacity())
            .finish()
    }
}

// SAFETY: the arena hands out shared references only while it is itself
// borrowed; moving it between threads moves exclusive ownership of its
// chunks. (It is !Sync: interior mutability through `Cell` is unsynchronized.)
unsafe impl Send for Arena {}

impl Arena {
    /// An empty arena. The first chunk is allocated lazily on first use.
    pub fn new() -> Arena {
        Arena {
            head: Cell::new(std::ptr::null_mut()),
            end: Cell::new(std::ptr::null_mut()),
            chunks: RefCell::new(Vec::new()),
            used: Cell::new(0),
        }
    }

    /// Total bytes of chunk capacity currently owned.
    pub fn capacity(&self) -> usize {
        self.chunks.borrow().iter().map(|c| c.size).sum()
    }

    /// Bytes handed out since creation or the last [`Arena::reset`].
    pub fn used_bytes(&self) -> usize {
        self.used.get()
    }

    /// Rewinds the arena, invalidating every outstanding reference (the
    /// `&mut` receiver lets the borrow checker prove there are none). The
    /// largest retained-size chunk is kept for reuse — steady-state resets
    /// free nothing and allocate nothing.
    pub fn reset(&mut self) {
        let chunks = self.chunks.get_mut();
        let keep = chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.size <= MAX_RETAINED_BYTES)
            .max_by_key(|(_, c)| c.size)
            .map(|(i, _)| i);
        match keep {
            Some(index) => {
                chunks.swap(0, index);
                chunks.truncate(1);
                let chunk = &chunks[0];
                self.head.set(chunk.ptr.as_ptr());
                // SAFETY: `size` bytes were allocated at `ptr`.
                self.end.set(unsafe { chunk.ptr.as_ptr().add(chunk.size) });
            }
            None => {
                chunks.clear();
                self.head.set(std::ptr::null_mut());
                self.end.set(std::ptr::null_mut());
            }
        }
        self.used.set(0);
    }

    /// Rewinds the arena like [`Arena::reset`] but releases **every** chunk,
    /// returning the arena to its freshly-created, zero-capacity state. The
    /// corpus pipeline calls this after a resource-guard trip or a caught
    /// parse panic: whatever high-water mark the pathological entry drove the
    /// arena to is handed back to the allocator instead of pinned for the
    /// rest of the worker's life.
    pub fn trim(&mut self) {
        self.chunks.get_mut().clear();
        self.head.set(std::ptr::null_mut());
        self.end.set(std::ptr::null_mut());
        self.used.set(0);
    }

    /// Bump-allocates `size` bytes at `align` and returns the start.
    fn alloc_raw(&self, size: usize, align: usize) -> NonNull<u8> {
        debug_assert!(align <= 16, "arena alignment capped at 16");
        let head = self.head.get();
        let aligned = (head as usize).wrapping_add(align - 1) & !(align - 1);
        let next = aligned.wrapping_add(size);
        if !head.is_null() && next <= self.end.get() as usize && aligned >= head as usize {
            self.head.set(next as *mut u8);
            self.used.set(self.used.get() + size);
            // SAFETY: `aligned` lies inside the current chunk.
            return unsafe { NonNull::new_unchecked(aligned as *mut u8) };
        }
        self.alloc_slow(size, align)
    }

    #[cold]
    fn alloc_slow(&self, size: usize, align: usize) -> NonNull<u8> {
        let grown = self
            .chunks
            .borrow()
            .last()
            .map(|c| c.size.saturating_mul(2))
            .unwrap_or(INITIAL_CHUNK_BYTES);
        let chunk_size = grown.max(INITIAL_CHUNK_BYTES).max(size + align);
        let chunk = Chunk::new(chunk_size);
        let start = chunk.ptr.as_ptr();
        // SAFETY: `chunk_size >= size + align` bytes were just allocated.
        let end = unsafe { start.add(chunk_size) };
        self.chunks.borrow_mut().push(chunk);
        let aligned = (start as usize).wrapping_add(align - 1) & !(align - 1);
        self.head.set((aligned + size) as *mut u8);
        self.end.set(end);
        self.used.set(self.used.get() + size);
        // SAFETY: chunk allocations are non-null.
        unsafe { NonNull::new_unchecked(aligned as *mut u8) }
    }

    /// Allocates one value. `Copy`-bounded: arena memory is never dropped.
    pub fn alloc<T: Copy>(&self, value: T) -> &T {
        let ptr = self.alloc_raw(size_of::<T>(), align_of::<T>()).as_ptr() as *mut T;
        // SAFETY: `ptr` is a fresh, aligned, in-bounds allocation for one T.
        unsafe {
            ptr.write(value);
            &*ptr
        }
    }

    /// Copies a slice into the arena.
    pub fn alloc_slice<T: Copy>(&self, values: &[T]) -> &[T] {
        if values.is_empty() {
            return &[];
        }
        let ptr = self
            .alloc_raw(std::mem::size_of_val(values), align_of::<T>())
            .as_ptr() as *mut T;
        // SAFETY: the allocation holds `values.len()` aligned slots of T and
        // does not overlap `values` (it is freshly bump-allocated).
        unsafe {
            std::ptr::copy_nonoverlapping(values.as_ptr(), ptr, values.len());
            std::slice::from_raw_parts(ptr, values.len())
        }
    }

    /// Copies a string into the arena.
    pub fn alloc_str(&self, s: &str) -> &str {
        let bytes = self.alloc_slice(s.as_bytes());
        // SAFETY: `bytes` is a byte-exact copy of a valid UTF-8 string.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Concatenates two strings into one arena allocation (prefixed-name
    /// expansion, numeric-sign folding).
    pub fn alloc_str_concat(&self, a: &str, b: &str) -> &str {
        if a.is_empty() {
            return self.alloc_str(b);
        }
        if b.is_empty() {
            return self.alloc_str(a);
        }
        let total = a.len() + b.len();
        let ptr = self.alloc_raw(total, 1).as_ptr();
        // SAFETY: `total` fresh bytes at `ptr`; sources do not overlap the
        // destination.
        unsafe {
            std::ptr::copy_nonoverlapping(a.as_ptr(), ptr, a.len());
            std::ptr::copy_nonoverlapping(b.as_ptr(), ptr.add(a.len()), b.len());
            let bytes = std::slice::from_raw_parts(ptr, total);
            std::str::from_utf8_unchecked(bytes)
        }
    }

    /// Copies a string into the arena with ASCII letters uppercased
    /// (canonical function names). Non-ASCII bytes pass through untouched,
    /// so the copy stays valid UTF-8.
    pub fn alloc_str_ascii_uppercase(&self, s: &str) -> &str {
        let ptr = self.alloc_raw(s.len(), 1).as_ptr();
        for (i, b) in s.bytes().enumerate() {
            // SAFETY: `i < s.len()` bytes were allocated at `ptr`.
            unsafe { ptr.add(i).write(b.to_ascii_uppercase()) };
        }
        // SAFETY: ASCII-only uppercasing preserves UTF-8 validity.
        unsafe {
            let bytes = std::slice::from_raw_parts(ptr, s.len());
            std::str::from_utf8_unchecked(bytes)
        }
    }

    /// Attempts to extend the allocation `[ptr, ptr + old_bytes)` in place
    /// to `new_bytes`; only possible when it is the most recent allocation
    /// (sits at the bump tip). Returns whether it succeeded.
    fn try_grow_in_place(&self, ptr: *mut u8, old_bytes: usize, new_bytes: usize) -> bool {
        let tip = (ptr as usize).wrapping_add(old_bytes);
        if tip != self.head.get() as usize {
            return false;
        }
        let next = (ptr as usize).wrapping_add(new_bytes);
        if next > self.end.get() as usize {
            return false;
        }
        self.head.set(next as *mut u8);
        self.used.set(self.used.get() + (new_bytes - old_bytes));
        true
    }
}

/// A growable vector whose storage lives in an [`Arena`].
///
/// The parser builds every AST list through one of these: pushes bump into
/// the arena, growth extends in place whenever the vector still sits at the
/// bump tip (the common case for the innermost list under construction),
/// and [`ArenaVec::finish`] releases the storage as a plain `&'a [T]` —
/// list building touches the global allocator zero times.
pub struct ArenaVec<'a, T: Copy> {
    arena: &'a Arena,
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
}

impl<'a, T: Copy> ArenaVec<'a, T> {
    /// An empty vector borrowing the arena. No space is reserved until the
    /// first push.
    pub fn new(arena: &'a Arena) -> ArenaVec<'a, T> {
        ArenaVec {
            arena,
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// Number of elements pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no element has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements pushed so far.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `len` initialized elements live at `ptr`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.len == self.cap {
            self.grow();
        }
        // SAFETY: `len < cap` slots are allocated at `ptr`.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.cap * 2).max(4);
        let elem = size_of::<T>();
        if self.cap > 0
            && elem > 0
            && self.arena.try_grow_in_place(
                self.ptr.as_ptr() as *mut u8,
                self.cap * elem,
                new_cap * elem,
            )
        {
            self.cap = new_cap;
            return;
        }
        let fresh = self
            .arena
            .alloc_raw((new_cap * elem).max(1), align_of::<T>().min(16))
            .as_ptr() as *mut T;
        // SAFETY: `new_cap >= len` slots at `fresh`; old storage (if any)
        // holds `len` initialized elements and cannot overlap the fresh
        // bump allocation.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), fresh, self.len);
            self.ptr = NonNull::new_unchecked(fresh);
        }
        self.cap = new_cap;
    }

    /// Finishes the vector, returning its contents as an arena slice.
    pub fn finish(self) -> &'a [T] {
        // SAFETY: `len` initialized elements live at `ptr` inside the arena,
        // which outlives 'a.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_values_slices_and_strings() {
        let arena = Arena::new();
        let a = arena.alloc(41u64);
        let b = arena.alloc((1u8, 2u32));
        let s = arena.alloc_slice(&[1u16, 2, 3]);
        let t = arena.alloc_str("hello");
        assert_eq!((*a, *b), (41, (1, 2)));
        assert_eq!(s, &[1, 2, 3]);
        assert_eq!(t, "hello");
        assert!(arena.used_bytes() >= 8 + 8 + 6 + 5);
    }

    #[test]
    fn concat_and_uppercase_helpers() {
        let arena = Arena::new();
        assert_eq!(arena.alloc_str_concat("http://x/", "P31"), "http://x/P31");
        assert_eq!(arena.alloc_str_concat("", "y"), "y");
        assert_eq!(arena.alloc_str_ascii_uppercase("strLen-ß"), "STRLEN-ß");
    }

    #[test]
    fn reset_retains_capacity_and_invalidates_nothing_live() {
        let mut arena = Arena::new();
        for round in 0..3 {
            let s = arena.alloc_str("payload");
            assert_eq!(s, "payload");
            let capacity = arena.capacity();
            assert!(capacity >= INITIAL_CHUNK_BYTES, "round {round}");
            arena.reset();
            assert_eq!(arena.used_bytes(), 0);
            // Steady state: capacity is retained, not reallocated.
            assert_eq!(arena.capacity(), capacity);
        }
    }

    #[test]
    fn grows_past_the_first_chunk() {
        let arena = Arena::new();
        let big = vec![7u8; INITIAL_CHUNK_BYTES * 3];
        let copy = arena.alloc_slice(&big);
        assert_eq!(copy.len(), big.len());
        assert!(copy.iter().all(|&b| b == 7));
        let small = arena.alloc(1u32);
        assert_eq!(*small, 1);
    }

    #[test]
    fn arena_vec_pushes_grows_and_finishes() {
        let arena = Arena::new();
        let mut v = ArenaVec::new(&arena);
        for i in 0..1000u32 {
            v.push(i);
        }
        assert_eq!(v.len(), 1000);
        let slice = v.finish();
        assert!(slice.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn interleaved_arena_vecs_stay_disjoint() {
        let arena = Arena::new();
        let mut a = ArenaVec::new(&arena);
        let mut b = ArenaVec::new(&arena);
        for i in 0..200u64 {
            a.push(i);
            b.push(i * 2);
            if i % 7 == 0 {
                arena.alloc_str("interleaved");
            }
        }
        let (a, b) = (a.finish(), b.finish());
        assert!(a.iter().enumerate().all(|(i, &x)| x == i as u64));
        assert!(b.iter().enumerate().all(|(i, &x)| x == i as u64 * 2));
    }

    #[test]
    fn zero_sized_and_empty_allocations() {
        let arena = Arena::new();
        let unit = arena.alloc(());
        assert_eq!(*unit, ());
        let empty: &[u32] = arena.alloc_slice(&[]);
        assert!(empty.is_empty());
        let mut v: ArenaVec<'_, ()> = ArenaVec::new(&arena);
        v.push(());
        v.push(());
        assert_eq!(v.finish().len(), 2);
    }

    #[test]
    fn oversized_chunks_are_released_on_reset() {
        let mut arena = Arena::new();
        let huge = vec![0u8; MAX_RETAINED_BYTES + 1];
        arena.alloc_slice(&huge);
        assert!(arena.capacity() > MAX_RETAINED_BYTES);
        arena.reset();
        assert!(arena.capacity() <= MAX_RETAINED_BYTES);
    }
}
