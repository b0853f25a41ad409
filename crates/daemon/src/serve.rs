//! The serving loop: acceptor → per-connection readers → a fixed pool
//! of worker threads over channels.
//!
//! ## Threading model
//!
//! * **Acceptor** — one thread on a non-blocking listener; polls at
//!   1 ms, spawns a reader per accepted connection, and exits when the
//!   stop flag rises.
//! * **Readers** — one per connection, blocked in
//!   [`coca_net::read_message`] over one payload buffer that lives as
//!   long as the connection; each decoded [`ClientMsg`] is pushed to
//!   the connection's worker. A reader exits on clean EOF (client hung
//!   up), after forwarding `Shutdown`, or when [`DaemonHandle::join`]
//!   shuts the socket down under it.
//! * **Workers** — a fixed pool looping `recv_timeout(50 ms)` on their
//!   channel (the vendored crossbeam shim has no untimed `recv`). Each
//!   connection is pinned round-robin to exactly one worker, so replies
//!   on a connection come back in request order and at most one thread
//!   ever writes to a given socket. A worker encodes every reply into
//!   one frame buffer it keeps for its lifetime. Workers drain their
//!   queue and exit when every sender (acceptor + readers) is gone.
//!
//! Shutdown sequence: a `Shutdown` message (or
//! [`DaemonHandle::shutdown`]) raises the stop flag → the acceptor
//! exits → [`DaemonHandle::join`] shuts down every registered socket,
//! unblocking readers → readers exit, dropping the channel senders →
//! workers observe the disconnect after draining → the core is
//! unwrapped, flushed, digested, and returned in the [`DaemonReport`].

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use coca_core::CocaServer;
use coca_net::{read_message, write_message};

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
            let Some(delta) = core.export_delta(*cell) else {
                break; // sharded core: no peer sync
            };
            if !delta.is_empty() && ship_delta(addr, ClientMsg::Peer(delta), &mut buf) {
                sent += 1;
            }
        }
        sent
    }
}

/// Bound on each step of shipping a delta — connect, write, wait for the
/// ack. The sync runs on a worker (`SyncNow`) or the sync thread; a dead
/// or silent peer may cost it this long, never park it.
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
        read_message::<_, ServerMsg>(&mut &stream, buf),
        Ok(Some(ServerMsg::PeerAck(true)))
    )
}

/// How long a worker sleeps between channel polls (the shim's
/// `recv_timeout` is the only blocking receive available).
const WORKER_POLL: Duration = Duration::from_millis(50);
/// Acceptor poll interval on the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// One unit of work: a decoded message plus the socket to answer on.
struct Job {
    conn: Arc<TcpStream>,
    msg: ClientMsg,
}

/// Monotone counters the daemon keeps while serving.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    uploads: AtomicU64,
    flushes: AtomicU64,
}

type ConnRegistry = Arc<Mutex<Vec<Arc<TcpStream>>>>;

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`DaemonHandle::shutdown`] (or send [`ClientMsg::Shutdown`]) and then
/// [`DaemonHandle::join`].
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    core: Arc<ServerCore>,
    counters: Arc<Counters>,
    conns: ConnRegistry,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
    workers: Vec<JoinHandle<()>>,
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
    /// The single-lock server, handed back for post-run inspection
    /// (durability detach, recovery asserts). `None` in sharded mode.
    pub server: Option<CocaServer>,
}

/// Starts serving `core` on `listener` with `workers` worker threads
/// (clamped to ≥ 1). Returns immediately; the daemon runs until a
/// [`ClientMsg::Shutdown`] arrives or [`DaemonHandle::shutdown`] is
/// called.
pub fn serve(
    core: ServerCore,
    listener: TcpListener,
    workers: usize,
) -> std::io::Result<DaemonHandle> {
    serve_with_peers(core, listener, workers, PeerSet::default())
}

/// [`serve`] with a peer topology: the daemon answers
/// [`ClientMsg::Peer`]/[`ClientMsg::SyncNow`], and — when the peer set
/// carries a period — runs a periodic sync thread that ships deltas to
/// every configured peer, the socket deployment of the virtual-time
/// engine's sync tick.
pub fn serve_with_peers(
    core: ServerCore,
    listener: TcpListener,
    workers: usize,
    peers: PeerSet,
) -> std::io::Result<DaemonHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let core = Arc::new(core);
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
    let peers = Arc::new(peers);

    let n = workers.max(1);
    let mut worker_handles = Vec::with_capacity(n);
    let mut senders = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Job>();
        senders.push(tx);
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        let counters = Arc::clone(&counters);
        let peers = Arc::clone(&peers);
        worker_handles.push(std::thread::spawn(move || {
            worker_loop(rx, &core, &stop, &counters, &peers)
        }));
    }

    let acceptor = {
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::spawn(move || accept_loop(&listener, senders, &conns, &stop))
    };

    let sync = peers.period.filter(|_| !peers.is_empty()).map(|period| {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        let peers = Arc::clone(&peers);
        std::thread::spawn(move || sync_loop(&core, &stop, &peers, period))
    });

    Ok(DaemonHandle {
        addr,
        stop,
        core,
        counters,
        conns,
        acceptor,
        workers: worker_handles,
        sync,
    })
}

/// The periodic peer-sync thread: checks the stop flag every poll tick
/// and fires a sync once per period.
fn sync_loop(
    core: &Arc<ServerCore>,
    stop: &Arc<AtomicBool>,
    peers: &Arc<PeerSet>,
    period: Duration,
) {
    let mut elapsed = Duration::ZERO;
    while !stop.load(Ordering::SeqCst) {
        let step = period.min(WORKER_POLL);
        std::thread::sleep(step);
        elapsed += step;
        if elapsed >= period {
            elapsed = Duration::ZERO;
            peers.sync_now(core);
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
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the daemon to stop, tears the thread tree down in
    /// dependency order, and returns the final report. Blocks until a
    /// `Shutdown` message arrives or [`Self::shutdown`] is called.
    pub fn join(self) -> DaemonReport {
        let readers = self.acceptor.join().expect("acceptor thread panicked");
        // Unblock readers parked in a blocking read. Data already
        // written (e.g. the ShuttingDown ack) is flushed, not dropped:
        // TCP shutdown queues a FIN behind pending bytes.
        for conn in self
            .conns
            .lock()
            .expect("connection registry poisoned")
            .iter()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for r in readers {
            r.join().expect("reader thread panicked");
        }
        // All senders are gone now; workers drain their queues and see
        // the disconnect.
        for w in self.workers {
            w.join().expect("worker thread panicked");
        }
        if let Some(s) = self.sync {
            s.join().expect("sync thread panicked");
        }
        let Ok(core) = Arc::try_unwrap(self.core) else {
            unreachable!("all worker references dropped at join")
        };
        // Leftover queued uploads (round-aligned tails) are flushed so
        // the report digest names a well-defined, fully-merged state.
        core.flush();
        DaemonReport {
            digest: core.digest(),
            requests: self.counters.requests.load(Ordering::Relaxed),
            uploads: self.counters.uploads.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            server: core.into_server(),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    senders: Vec<Sender<Job>>,
    conns: &ConnRegistry,
    stop: &Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let mut readers = Vec::new();
    let mut next_conn = 0usize;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let write = match stream.try_clone() {
                    Ok(w) => Arc::new(w),
                    Err(_) => continue,
                };
                conns
                    .lock()
                    .expect("connection registry poisoned")
                    .push(Arc::clone(&write));
                let tx = senders[next_conn % senders.len()].clone();
                next_conn += 1;
                readers.push(std::thread::spawn(move || reader_loop(stream, &write, &tx)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
    readers
}

fn reader_loop(stream: TcpStream, write: &Arc<TcpStream>, tx: &Sender<Job>) {
    let mut reader = BufReader::new(stream);
    let mut payload = Vec::new();
    // A clean EOF (client hung up) or transport error / socket shutdown
    // during teardown ends the loop: either way this connection is done.
    while let Ok(Some(msg)) = read_message::<_, ClientMsg>(&mut reader, &mut payload) {
        let last = matches!(msg, ClientMsg::Shutdown);
        if tx
            .send(Job {
                conn: Arc::clone(write),
                msg,
            })
            .is_err()
            || last
        {
            break;
        }
    }
}

fn worker_loop(
    rx: Receiver<Job>,
    core: &Arc<ServerCore>,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
    peers: &Arc<PeerSet>,
) {
    let mut frame = Vec::new();
    loop {
        match rx.recv_timeout(WORKER_POLL) {
            Ok(job) => handle_job(job, core, stop, counters, peers, &mut frame),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn handle_job(
    job: Job,
    core: &ServerCore,
    stop: &AtomicBool,
    counters: &Counters,
    peers: &PeerSet,
    frame: &mut Vec<u8>,
) {
    let mut is_shutdown = false;
    let reply = match job.msg {
        ClientMsg::Hello => ServerMsg::Profile(core.base_hit_profile()),
        ClientMsg::Request(req) => {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            ServerMsg::Alloc(core.handle_request(&req))
        }
        ClientMsg::Upload(up) => {
            counters.uploads.fetch_add(1, Ordering::Relaxed);
            core.handle_upload(up);
            ServerMsg::UploadAck(core.pending_uploads())
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
        ClientMsg::Peer(delta) => ServerMsg::PeerAck(core.absorb_peer(&delta)),
        ClientMsg::SyncNow => ServerMsg::SyncDone(peers.sync_now(core)),
        ClientMsg::Shutdown => {
            is_shutdown = true;
            ServerMsg::ShuttingDown
        }
    };
    // The ack goes out before the stop flag rises, so the shutting-down
    // client sees its reply; a peer that already hung up is not an
    // error worth dying over.
    let mut w: &TcpStream = &job.conn;
    let _ = write_message(&mut w, &reply, frame);
    if is_shutdown {
        stop.store(true, Ordering::SeqCst);
    }
}
