//! The two system calls the standard library does not wrap: `ppoll` and
//! the timer slack. Linux only.

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Block until `stream` is readable or `timeout` passes.
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // duration of the call; one pollfd is passed and a null signal
    // mask means "leave the mask unchanged".
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Let this thread's timed waits end within 1 µs of their deadline
/// (the default slack is 50 µs). Best effort: failure keeps the default.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as c_ulong);
    }
}
