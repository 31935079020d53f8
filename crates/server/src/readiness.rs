//! Readiness waits: a minimal `poll(2)` binding and a socketpair waker.
//!
//! Every server thread that owns sockets (the acceptor, each worker, the
//! repl-out thread) blocks here between passes instead of sleeping on a
//! timer: it wakes when one of its sockets is ready, when another thread
//! pokes its [`Waker`] (a connection handoff, a feed publish, shutdown),
//! or when the earliest deadline it passed in comes due. std already
//! links libc, so the one `extern "C"` declaration below is the whole
//! dependency.

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Readable (or, for a listener, an accept is pending).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

impl PollFd {
    /// An entry waiting for `events` on `fd`. With no interest the entry
    /// gets a negative fd, which `poll(2)` skips: otherwise a hung-up
    /// peer would report `POLLHUP` on every wait and turn the loop into a
    /// spin.
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this entry.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until an entry in `fds` is ready or `deadline` passes (`None`
/// waits indefinitely). The timeout is rounded up to whole milliseconds:
/// waking before a deadline would only buy a pass that finds nothing due.
/// A signal interrupting the wait returns early, like a timeout; with
/// valid descriptors `poll(2)` has no other failure worth handling.
pub(crate) fn wait(fds: &mut [PollFd], deadline: Option<Instant>) {
    let timeout = match deadline {
        None => -1,
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now());
            left.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
        }
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `#[repr(C)]` pollfd structs and `nfds` is its exact length.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout);
    }
}

/// A wake fd another thread can poke to end a [`wait`] early: the read
/// end of a non-blocking socketpair sits in the owner's poll set, and
/// [`Waker::wake`] writes one byte to the other end. Wakes coalesce — a
/// second wake before the owner's [`Waker::reset`] writes nothing — so a
/// hot publish path pays one atomic swap, not a syscall, per call.
#[derive(Debug)]
pub(crate) struct Waker {
    rx: UnixStream,
    tx: UnixStream,
    armed: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker {
            rx,
            tx,
            armed: AtomicBool::new(false),
        })
    }

    /// Makes the owner's current or next [`wait`] return. A full socket
    /// buffer means a wake is already pending, so a failed write is fine.
    /// Both swaps are `AcqRel`: the owner's disarming swap acquires what
    /// every waker it supersedes released, so the look that follows sees
    /// their work.
    pub(crate) fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The entry to put in the owner's poll set.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Consumes pending wakes. The owner calls this when its entry was
    /// ready, *before* looking for the work the wake announced. Bytes go
    /// first and the flag last: a wake after the disarm writes a fresh
    /// byte for the next wait, and one before it is covered by the look
    /// that follows. (Disarming first would let this drain swallow the
    /// byte of a wake that re-armed in between, leaving the flag set with
    /// nothing pending — every later wake lost.)
    pub(crate) fn reset(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.armed.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wait_times_out_without_readiness() {
        let w = Waker::new().unwrap();
        let mut fds = [w.poll_fd()];
        let t0 = Instant::now();
        wait(&mut fds, Some(t0 + Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!fds[0].ready());
    }

    #[test]
    fn wakes_coalesce_and_reset_rearms() {
        let w = Waker::new().unwrap();
        w.wake();
        w.wake();
        let mut fds = [w.poll_fd()];
        wait(&mut fds, None);
        assert!(fds[0].ready());
        w.reset();
        let mut fds = [w.poll_fd()];
        wait(&mut fds, Some(Instant::now()));
        assert!(!fds[0].ready(), "reset must consume every coalesced wake");
        w.wake();
        let mut fds = [w.poll_fd()];
        wait(&mut fds, Some(Instant::now() + Duration::from_secs(5)));
        assert!(fds[0].ready(), "a wake after reset must fire again");
    }

    #[test]
    fn wake_from_another_thread_ends_an_indefinite_wait() {
        let w = std::sync::Arc::new(Waker::new().unwrap());
        let w2 = std::sync::Arc::clone(&w);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        let mut fds = [w.poll_fd()];
        wait(&mut fds, None);
        assert!(fds[0].ready());
        t.join().unwrap();
    }

    #[test]
    fn no_interest_entries_are_skipped() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b); // hung up: would report POLLHUP if polled
        let mut fds = [PollFd::new(a.as_raw_fd(), 0)];
        wait(&mut fds, Some(Instant::now() + Duration::from_millis(5)));
        assert!(!fds[0].ready());
    }
}
