//! The serving loop: an acceptor and one thread per connection.
//!
//! ## Threading model
//!
//! * **Acceptor** — one thread on a non-blocking listener; polls at
//!   1 ms, spawns a thread per accepted connection, joins the ones that
//!   have finished, and exits when the stop flag rises. An `accept`
//!   failure (fd limit, aborted handshake) is reported on stderr and
//!   retried at the next poll.
//! * **Connections** — one thread each, the whole serve path: it reads
//!   a frame ([`FrameReader`], one receive buffer for the connection's
//!   life), runs the handler against the shared [`ServerCore`], encodes
//!   the reply into its own frame buffer and writes it, then reads the
//!   next. Replies therefore leave in request order, and at most one
//!   decoded message per connection is ever in server memory: a client
//!   that pipelines faster than it is served, or stops reading its
//!   replies, is held back by TCP flow control and stalls nobody but
//!   itself. The thread exits on clean EOF (client hung up), on any
//!   framing or transport error in either direction, after answering
//!   `Shutdown`, or when [`DaemonHandle::join`] shuts the socket down
//!   under it; on the way out it takes its socket off the registry,
//!   which closes it.
//! * **Sync** — optional, one thread firing the periodic peer sync.
//!
//! Shutdown sequence: a `Shutdown` message is acked and then raises the
//! stop flag (as [`DaemonHandle::shutdown`] does) → the acceptor exits
//! → [`DaemonHandle::join`] shuts down every registered socket,
//! unblocking connection threads parked in a read or a write → each
//! finishes the operation it was in and exits → the core is unwrapped,
//! flushed, digested, and returned in the [`DaemonReport`].

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use coca_core::CocaServer;
use coca_net::{write_message, FrameReader};

use crate::core::ServerCore;
use crate::msg::{ClientMsg, ServerMsg};

/// The daemon's peer cells (`cocad --peers`): each entry is a peer's
/// cell id plus the address its own `cocad` listens on. Deltas ship as
/// ordinary [`ClientMsg::Peer`] frames over short-lived connections —
/// a peer daemon is just another client of the protocol.
///
/// Sync fires on demand ([`ClientMsg::SyncNow`]) or on the optional
/// period, from one dedicated thread — exports are cursor-based
/// ([`coca_core::CocaServer::export_delta`]), so a tick with nothing
/// new ships nothing. A delta whose ship fails — refused, or no ack
/// within [`PEER_TIMEOUT`] — is dropped (its cursor already advanced)
/// and the tick counts it as not shipped: peer sync is an
/// eventual-convergence path, not a durability path — the authoritative
/// Φ stays on the origin cell.
#[derive(Debug, Default)]
pub struct PeerSet {
    peers: Vec<(u32, String)>,
    /// Periodic sync interval; `None` = only explicit `SyncNow`.
    period: Option<Duration>,
}

impl PeerSet {
    /// Parses a `--peers` flag value: comma-separated `CELL=HOST:PORT`
    /// entries, e.g. `1=127.0.0.1:4001,2=127.0.0.1:4002`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut peers = Vec::new();
        for entry in s.split(',').filter(|e| !e.is_empty()) {
            let (cell, addr) = entry
                .split_once('=')
                .ok_or_else(|| format!("bad --peers entry '{entry}' (want CELL=HOST:PORT)"))?;
            let cell: u32 = cell
                .parse()
                .map_err(|_| format!("bad peer cell id '{cell}'"))?;
            peers.push((cell, addr.to_string()));
        }
        Ok(Self {
            peers,
            period: None,
        })
    }

    /// Adds a periodic sync interval (milliseconds).
    pub fn with_period_ms(mut self, ms: u64) -> Self {
        self.period = Some(Duration::from_millis(ms.max(1)));
        self
    }

    /// Whether any peers are configured.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// One sync tick: exports a delta per peer and ships the non-empty
    /// ones. Returns how many shipped (and were acknowledged).
    pub fn sync_now(&self, core: &ServerCore) -> usize {
        let mut sent = 0;
        let mut buf = Vec::new();
        for (cell, addr) in &self.peers {
            let delta = core.export_delta(*cell);
            if !delta.is_empty() && ship_delta(addr, ClientMsg::Peer(delta), &mut buf) {
                sent += 1;
            }
        }
        sent
    }
}

/// Bound on each step of shipping a delta — connect, write, wait for the
/// ack. The sync runs on the connection that sent `SyncNow` or on the
/// sync thread; a dead or silent peer may cost it this long, never park
/// it.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// Ships one [`ClientMsg::Peer`] frame to a peer daemon and waits for its
/// ack; `buf` is frame scratch shared across the tick's peers.
fn ship_delta(addr: &str, delta: ClientMsg, buf: &mut Vec<u8>) -> bool {
    let Some(stream) = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut resolved| resolved.next())
        .and_then(|sock| TcpStream::connect_timeout(&sock, PEER_TIMEOUT).ok())
    else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(PEER_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(PEER_TIMEOUT)).is_err()
        || write_message(&mut &stream, &delta, buf).is_err()
    {
        return false;
    }
    matches!(
        FrameReader::new(&stream).next(),
        Ok(Some(ServerMsg::PeerAck(true)))
    )
}

/// How often the sync thread looks at the stop flag while it waits out
/// its period.
const STOP_POLL: Duration = Duration::from_millis(50);
/// Acceptor poll interval on the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Monotone counters the daemon keeps while serving.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    uploads: AtomicU64,
    flushes: AtomicU64,
}

/// What every thread of one daemon shares.
#[derive(Debug)]
struct Shared {
    core: ServerCore,
    peers: PeerSet,
    stop: AtomicBool,
    counters: Counters,
    /// The socket of every live connection, so [`DaemonHandle::join`]
    /// can shut them down under blocked threads. A connection thread
    /// removes its own entry when it exits.
    conns: Mutex<Vec<Arc<TcpStream>>>,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`DaemonHandle::shutdown`] (or send [`ClientMsg::Shutdown`]) and then
/// [`DaemonHandle::join`].
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Returns the connection threads still running when it stopped.
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
    /// The periodic peer-sync thread, when `--peers` has a period.
    sync: Option<JoinHandle<()>>,
}

/// What a daemon run amounted to, returned by [`DaemonHandle::join`].
#[derive(Debug)]
pub struct DaemonReport {
    /// Global-table digest after a final flush of any queued uploads.
    pub digest: u64,
    /// Cache requests served.
    pub requests: u64,
    /// Uploads ingested (merged or enqueued).
    pub uploads: u64,
    /// Explicit `Flush` messages handled.
    pub flushes: u64,
    /// The server, handed back for post-run inspection (durability
    /// detach, recovery asserts).
    pub server: CocaServer,
}

/// Starts serving `core` on `listener`, one thread per connection.
/// Returns immediately; the daemon runs until a [`ClientMsg::Shutdown`]
/// arrives or [`DaemonHandle::shutdown`] is called.
pub fn serve(core: ServerCore, listener: TcpListener) -> std::io::Result<DaemonHandle> {
    serve_with_peers(core, listener, PeerSet::default())
}

/// [`serve`] with a peer topology: the daemon answers
/// [`ClientMsg::Peer`]/[`ClientMsg::SyncNow`], and — when the peer set
/// carries a period — runs a periodic sync thread that ships deltas to
/// every configured peer, the socket deployment of the virtual-time
/// engine's sync tick.
pub fn serve_with_peers(
    core: ServerCore,
    listener: TcpListener,
    peers: PeerSet,
) -> std::io::Result<DaemonHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let period = peers.period.filter(|_| !peers.is_empty());
    let shared = Arc::new(Shared {
        core,
        peers,
        stop: AtomicBool::new(false),
        counters: Counters::default(),
        conns: Mutex::new(Vec::new()),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(|| listener.accept().map(|(s, _)| s), &shared))
    };
    let sync = period.map(|period| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || sync_loop(&shared, period))
    });

    Ok(DaemonHandle {
        addr,
        shared,
        acceptor,
        sync,
    })
}

/// The periodic peer-sync thread: checks the stop flag every poll tick
/// and fires a sync once per period.
fn sync_loop(shared: &Shared, period: Duration) {
    let mut elapsed = Duration::ZERO;
    while !shared.stop.load(Ordering::SeqCst) {
        let step = period.min(STOP_POLL);
        std::thread::sleep(step);
        elapsed += step;
        if elapsed >= period {
            elapsed = Duration::ZERO;
            shared.peers.sync_now(&shared.core);
        }
    }
}

impl DaemonHandle {
    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the stop flag, as a `Shutdown` message would.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Connections being served right now: accepted and not yet closed.
    pub fn open_connections(&self) -> usize {
        self.shared
            .conns
            .lock()
            .expect("connection registry poisoned")
            .len()
    }

    /// Waits for the daemon to stop, tears the thread tree down in
    /// dependency order, and returns the final report. Blocks until a
    /// `Shutdown` message arrives or [`Self::shutdown`] is called.
    pub fn join(self) -> DaemonReport {
        let connections = self.acceptor.join().expect("acceptor thread panicked");
        // Unblock threads parked in a blocking read or write. Data
        // already written (e.g. the ShuttingDown ack) is flushed, not
        // dropped: TCP shutdown queues a FIN behind pending bytes.
        for conn in self
            .shared
            .conns
            .lock()
            .expect("connection registry poisoned")
            .iter()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for c in connections {
            c.join().expect("connection thread panicked");
        }
        if let Some(s) = self.sync {
            s.join().expect("sync thread panicked");
        }
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            unreachable!("every thread that held the state has been joined")
        };
        let Shared { core, counters, .. } = shared;
        // Leftover queued uploads (round-aligned tails) are flushed so
        // the report digest names a well-defined, fully-merged state.
        core.flush();
        DaemonReport {
            digest: core.digest(),
            requests: counters.requests.into_inner(),
            uploads: counters.uploads.into_inner(),
            flushes: counters.flushes.into_inner(),
            server: core.into_server(),
        }
    }
}

/// Joins the connection threads that have already finished, so a
/// long-running daemon holds handles only for live connections.
fn reap(connections: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < connections.len() {
        if connections[i].is_finished() {
            connections
                .swap_remove(i)
                .join()
                .expect("connection thread panicked");
        } else {
            i += 1;
        }
    }
}

/// The acceptor thread. `accept` is the listener's non-blocking accept
/// (a parameter so a test can script its failures).
fn accept_loop(
    mut accept: impl FnMut() -> std::io::Result<TcpStream>,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    let mut connections = Vec::new();
    let mut failing = false;
    while !shared.stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                failing = false;
                reap(&mut connections);
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let stream = Arc::new(stream);
                shared
                    .conns
                    .lock()
                    .expect("connection registry poisoned")
                    .push(Arc::clone(&stream));
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || {
                    serve_connection(&stream, &shared)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Out of descriptors, a handshake aborted in the backlog:
            // conditions that pass. Said once per streak, not per poll.
            Err(e) => {
                if !failing {
                    eprintln!("cocad: accept failed, retrying every {ACCEPT_POLL:?}: {e}");
                    failing = true;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    connections
}

/// One connection, start to finish, on its own thread.
fn serve_connection(stream: &Arc<TcpStream>, shared: &Shared) {
    let mut frames = FrameReader::new(&**stream);
    let mut reply_frame = Vec::new();
    // A clean EOF (client hung up), a frame that does not decode, or a
    // transport error / socket shutdown during teardown ends the loop:
    // either way this connection is done.
    while let Ok(Some(msg)) = frames.next::<ClientMsg>() {
        let last = matches!(msg, ClientMsg::Shutdown);
        let reply = handle(msg, shared);
        let sent = write_message(&mut &**stream, &reply, &mut reply_frame);
        if last {
            // After the ack, so the shutting-down client sees its reply.
            shared.stop.store(true, Ordering::SeqCst);
        }
        // A reply that cannot be written means the peer hung up or the
        // socket was shut down for teardown: whatever it still has
        // queued goes unserved.
        if last || sent.is_err() {
            break;
        }
    }
    let mut conns = shared.conns.lock().expect("connection registry poisoned");
    if let Some(i) = conns.iter().position(|c| Arc::ptr_eq(c, stream)) {
        conns.swap_remove(i);
    }
}

fn handle(msg: ClientMsg, shared: &Shared) -> ServerMsg {
    let Shared { core, counters, .. } = shared;
    match msg {
        ClientMsg::Hello => ServerMsg::Profile(core.base_hit_profile()),
        ClientMsg::Request(req) => {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            ServerMsg::Alloc(core.handle_request(&req))
        }
        ClientMsg::Upload(up) => {
            counters.uploads.fetch_add(1, Ordering::Relaxed);
            ServerMsg::UploadAck(core.handle_upload(up))
        }
        ClientMsg::Flush => {
            counters.flushes.fetch_add(1, Ordering::Relaxed);
            core.flush();
            ServerMsg::FlushDone
        }
        ClientMsg::Digest => ServerMsg::Digest(core.digest()),
        ClientMsg::SetWatermark(n) => {
            core.set_flush_watermark(n);
            ServerMsg::WatermarkSet
        }
        ClientMsg::Peer(delta) => {
            core.absorb_peer(&delta);
            ServerMsg::PeerAck(true)
        }
        ClientMsg::SyncNow => ServerMsg::SyncDone(shared.peers.sync_now(core)),
        ClientMsg::Shutdown => ServerMsg::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::RunSpec;
    use crate::load::DaemonClient;

    #[test]
    fn an_accept_error_does_not_end_the_acceptor() {
        let spec = RunSpec {
            classes: 15,
            ..RunSpec::default()
        };
        let (rt, cfg, seeds) = spec.build();
        let shared = Arc::new(Shared {
            core: ServerCore::new(CocaServer::new(&rt, cfg, &seeds)),
            peers: PeerSet::default(),
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            conns: Mutex::new(Vec::new()),
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.set_nonblocking(true).expect("non-blocking");
        let addr = listener.local_addr().expect("bound address");
        // The listener runs out of descriptors twice, then recovers.
        let mut failures = 2;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let accept = || {
                    if failures > 0 {
                        failures -= 1;
                        return Err(std::io::Error::other("too many open files"));
                    }
                    listener.accept().map(|(s, _)| s)
                };
                accept_loop(accept, &shared)
            })
        };
        // The handshake completes in the backlog either way; the reply
        // needs the acceptor to have outlived its errors.
        let mut client = DaemonClient::connect(addr).expect("connect");
        assert_eq!(
            client.hello().expect("served after the accept errors"),
            shared.core.base_hit_profile()
        );
        drop(client);
        shared.stop.store(true, Ordering::SeqCst);
        for c in acceptor.join().expect("acceptor thread") {
            c.join().expect("connection thread");
        }
        assert!(shared.conns.lock().expect("registry").is_empty());
    }
}
