//! Transport: one [`Stream`] abstraction over TCP and Unix-domain
//! sockets so the protocol, server and client code are written once —
//! plus the zero-dependency readiness layer ([`PollSet`], [`WakePipe`])
//! the poll-model event loop is built on.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a server should listen (or a client connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// A TCP address, e.g. `127.0.0.1:7117` (`:0` picks a free port).
    Tcp(String),
    /// A Unix-domain socket path. An existing socket file is replaced.
    Unix(PathBuf),
}

/// Where a server actually ended up listening (TCP resolves `:0`).
#[derive(Debug, Clone)]
pub enum BoundAddr {
    /// The resolved TCP address.
    Tcp(SocketAddr),
    /// The Unix socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Tcp(a) => write!(f, "tcp://{a}"),
            BoundAddr::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// Either kind of listener.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Unix(UnixListener),
}

impl Listener {
    /// Binds `bind`, replacing a stale Unix socket file if present.
    ///
    /// # Errors
    ///
    /// The underlying bind failure.
    pub fn bind(bind: &Bind) -> io::Result<(Listener, BoundAddr)> {
        match bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let a = l.local_addr()?;
                Ok((Listener::Tcp(l), BoundAddr::Tcp(a)))
            }
            Bind::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                Ok((Listener::Unix(l), BoundAddr::Unix(path.clone())))
            }
        }
    }

    /// Switches the listener between blocking and non-blocking accept.
    ///
    /// # Errors
    ///
    /// The underlying socket option failure.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// The raw file descriptor, for [`PollSet`] registration.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// The underlying accept failure.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

/// A connected socket of either kind.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connects to a listening server.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect(addr: &BoundAddr) -> io::Result<Stream> {
        match addr {
            BoundAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
            BoundAddr::Unix(p) => Ok(Stream::Unix(UnixStream::connect(p)?)),
        }
    }

    /// Connects to a TCP address string.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect_tcp(addr: &str) -> io::Result<Stream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true).ok();
        Ok(Stream::Tcp(s))
    }

    /// Connects to a Unix socket path.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect_unix(path: &Path) -> io::Result<Stream> {
        Ok(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Sets the read timeout (`None` = block forever).
    ///
    /// # Errors
    ///
    /// The underlying socket option failure.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Switches the socket between blocking and non-blocking I/O.
    ///
    /// # Errors
    ///
    /// The underlying socket option failure.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// The raw file descriptor, for [`PollSet`] registration.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Closes both directions.
    pub fn shutdown_both(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ----------------------------------------------------------------------
// Readiness: a zero-dependency poll(2) wrapper and a wakeup pipe
// ----------------------------------------------------------------------
//
// The event loop must not depend on any crate the container does not
// already have, so the two syscalls std does not expose — poll(2) and
// pipe2(2) — are declared by hand. Everything else (non-blocking
// sockets, raw fds) comes from std.

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

/// What a [`PollSet`] entry wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// What poll(2) reported for one entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Readable now (includes pending EOF).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error, hangup, or invalid fd — the owner should read to
    /// completion (surfacing the error) and close.
    pub error: bool,
}

/// One poll(2) round: callers re-register their fds every iteration
/// (the set is tiny per-entry — an fd and two shorts — and rebuilding
/// beats bookkeeping for thousands of mostly-idle connections).
#[derive(Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Drops every registration (keeps the allocation).
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Registers `fd` and returns its index for [`PollSet::readiness`].
    pub fn register(&mut self, fd: RawFd, interest: Interest) -> usize {
        let mut events = 0i16;
        if interest.read {
            events |= POLLIN;
        }
        if interest.write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever). Returns how many entries are
    /// ready; `0` means the timeout fired.
    ///
    /// # Errors
    ///
    /// The raw `poll(2)` failure (`EINTR` is retried internally).
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        loop {
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// What the last [`PollSet::wait`] reported for entry `idx`.
    pub fn readiness(&self, idx: usize) -> Readiness {
        let r = self.fds[idx].revents;
        Readiness {
            readable: r & (POLLIN | POLLHUP) != 0,
            writable: r & POLLOUT != 0,
            error: r & (POLLERR | POLLHUP | POLLNVAL) != 0,
        }
    }
}

/// A self-pipe that turns cross-thread events (worker replies ready,
/// shutdown requested) into poll readiness. Both ends are non-blocking:
/// `wake` never stalls the caller when the pipe is already full (one
/// pending byte is as good as fifty), and `drain` empties it without
/// blocking the loop.
#[derive(Debug)]
pub struct WakePipe {
    rd: RawFd,
    wr: RawFd,
}

impl WakePipe {
    /// Opens the pipe.
    ///
    /// # Errors
    ///
    /// The underlying `pipe2(2)` failure.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            rd: fds[0],
            wr: fds[1],
        })
    }

    /// The read end, for [`PollSet`] registration.
    pub fn read_fd(&self) -> RawFd {
        self.rd
    }

    /// Makes the read end readable. Never blocks; a full pipe already
    /// guarantees the next `wait` returns immediately.
    pub fn wake(&self) {
        let byte = 1u8;
        let _ = unsafe { write(self.wr, &byte, 1) };
    }

    /// Swallows every pending wake byte. Returns how many were pending.
    pub fn drain(&self) -> usize {
        let mut buf = [0u8; 64];
        let mut total = 0usize;
        loop {
            let n = unsafe { read(self.rd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return total;
            }
            total += n as usize;
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.rd);
            close(self.wr);
        }
    }
}

// The fds are owned exclusively by this struct and every operation on
// them is a single syscall, so sharing across threads is safe.
unsafe impl Send for WakePipe {}
unsafe impl Sync for WakePipe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_bind_resolves_ephemeral_port() {
        let (l, addr) = Listener::bind(&Bind::Tcp("127.0.0.1:0".into())).unwrap();
        let BoundAddr::Tcp(a) = &addr else {
            panic!("tcp bind")
        };
        assert_ne!(a.port(), 0);
        drop(l);
    }

    #[test]
    fn unix_round_trip_and_stale_socket_replacement() {
        let path = std::env::temp_dir().join(format!("riot-serve-net-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for _ in 0..2 {
            // Second iteration rebinds over the stale socket file.
            let (l, addr) = Listener::bind(&Bind::Unix(path.clone())).unwrap();
            let t = std::thread::spawn(move || {
                let mut s = l.accept().unwrap();
                let mut b = [0u8; 2];
                s.read_exact(&mut b).unwrap();
                s.write_all(&b).unwrap();
            });
            let mut c = Stream::connect(&addr).unwrap();
            c.write_all(b"hi").unwrap();
            let mut b = [0u8; 2];
            c.read_exact(&mut b).unwrap();
            assert_eq!(&b, b"hi");
            t.join().unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wake_pipe_levels_readiness_and_drains() {
        let wp = WakePipe::new().unwrap();
        let mut ps = PollSet::new();
        ps.register(wp.read_fd(), Interest::READ);
        // Nothing pending: the timeout fires.
        assert_eq!(ps.wait(Some(Duration::from_millis(5))).unwrap(), 0);
        wp.wake();
        wp.wake();
        ps.clear();
        let idx = ps.register(wp.read_fd(), Interest::READ);
        assert_eq!(ps.wait(Some(Duration::from_millis(100))).unwrap(), 1);
        assert!(ps.readiness(idx).readable);
        assert_eq!(wp.drain(), 2);
        // Drained: back to timing out.
        ps.clear();
        ps.register(wp.read_fd(), Interest::READ);
        assert_eq!(ps.wait(Some(Duration::from_millis(5))).unwrap(), 0);
    }

    #[test]
    fn poll_set_reports_socket_readiness() {
        let (l, addr) = Listener::bind(&Bind::Tcp("127.0.0.1:0".into())).unwrap();
        l.set_nonblocking(true).unwrap();
        let mut ps = PollSet::new();
        let li = ps.register(l.raw_fd(), Interest::READ);
        assert_eq!(ps.wait(Some(Duration::from_millis(5))).unwrap(), 0);

        let mut client = Stream::connect(&addr).unwrap();
        assert_eq!(ps.wait(Some(Duration::from_millis(1000))).unwrap(), 1);
        assert!(ps.readiness(li).readable, "pending accept is readable");
        let mut server_side = l.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        // Idle connection: not readable; a fresh socket is writable.
        ps.clear();
        let ci = ps.register(server_side.raw_fd(), Interest::BOTH);
        assert!(ps.wait(Some(Duration::from_millis(1000))).unwrap() >= 1);
        let r = ps.readiness(ci);
        assert!(!r.readable && r.writable, "{r:?}");

        client.write_all(b"ping").unwrap();
        ps.clear();
        let ci = ps.register(server_side.raw_fd(), Interest::READ);
        assert_eq!(ps.wait(Some(Duration::from_millis(1000))).unwrap(), 1);
        assert!(ps.readiness(ci).readable);
        let mut buf = [0u8; 8];
        assert_eq!(server_side.read(&mut buf).unwrap(), 4);
        // Peer hangup surfaces as readable (read returns 0).
        drop(client);
        ps.clear();
        let ci = ps.register(server_side.raw_fd(), Interest::READ);
        assert_eq!(ps.wait(Some(Duration::from_millis(1000))).unwrap(), 1);
        assert!(ps.readiness(ci).readable);
        assert_eq!(server_side.read(&mut buf).unwrap(), 0);
    }
}
