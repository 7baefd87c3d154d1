//! Minimal SIGTERM/SIGINT handling without a libc dependency: a raw
//! `signal(2)` registration whose handler sets one atomic flag and shuts
//! down the listening socket the server's accept loop blocks on, so the
//! loop returns at once and turns the flag into a graceful drain (finish
//! in-flight partitions, flush, refuse new jobs).
//!
//! This is the crate's only unsafe code, confined here under an explicit
//! allow (the crate denies `unsafe_code` everywhere else). The handler body
//! is async-signal-safe: an atomic store, an atomic load and `shutdown(2)`.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

static TERMINATION: AtomicBool = AtomicBool::new(false);

/// The listening socket a termination request shuts down (−1 = none).
static WAKE: AtomicI32 = AtomicI32::new(-1);

/// Whether a SIGTERM/SIGINT has arrived since [`install`] (or
/// [`request_termination`] was called programmatically).
pub fn termination_requested() -> bool {
    TERMINATION.load(Ordering::Acquire)
}

/// Requests termination as if a signal had arrived: sets the flag and
/// wakes the registered accept loop.
pub fn request_termination() {
    TERMINATION.store(true, Ordering::Release);
    imp::shutdown(WAKE.load(Ordering::Acquire));
}

/// While the returned guard lives, a termination request also shuts down
/// the listening socket `fd`, which fails an `accept` blocked on it (with
/// `EINVAL`). One socket at a time: a later registration replaces it.
#[cfg(unix)]
pub(crate) fn wake_on_termination(fd: std::os::fd::RawFd) -> WakeGuard {
    WAKE.store(fd, Ordering::Release);
    WakeGuard(fd)
}

/// Unregisters its socket on drop, before the socket closes, so a later
/// request never shuts down a reused descriptor.
#[cfg(unix)]
pub(crate) struct WakeGuard(std::os::fd::RawFd);

#[cfg(unix)]
impl Drop for WakeGuard {
    fn drop(&mut self) {
        let _ = WAKE.compare_exchange(self.0, -1, Ordering::AcqRel, Ordering::Acquire);
    }
}

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SHUT_RDWR: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        #[link_name = "shutdown"]
        fn shutdown_socket(fd: i32, how: i32) -> i32;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: atomics and shutdown(2), nothing else.
        super::request_termination();
    }

    #[allow(unsafe_code)]
    pub fn shutdown(fd: i32) {
        if fd >= 0 {
            // SAFETY: shutdown(2) takes two integers and touches no memory;
            // on a descriptor that is not a socket it only fails.
            unsafe {
                shutdown_socket(fd, SHUT_RDWR);
            }
        }
    }

    #[allow(unsafe_code)]
    pub fn install() {
        // Raw signal(2) instead of sigaction keeps this dependency-free; the
        // handler survives for the process lifetime (SA_RESETHAND is not in
        // play for graceful drain — one delivery is all we need anyway).
        // SAFETY: signal(2) takes a signal number and a pointer to an
        // `extern "C"` handler; the handler is a plain function, so it
        // lives as long as the process, and does only async-signal-safe
        // work.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn shutdown(_fd: i32) {}
    pub fn install() {}
}

/// Registers the SIGTERM/SIGINT handler (no-op off unix). Idempotent.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programmatic_termination_sets_the_flag() {
        install();
        request_termination();
        assert!(termination_requested());
    }
}
