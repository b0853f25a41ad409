//! The load generator: a blocking protocol client, closed- and
//! open-loop multi-client drivers, and the sequential verify mode that
//! pins the daemon's digest against an in-process reference server.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use coca_metrics::LatencyHistogram;
use coca_net::{write_message, FrameError, FrameReader};

use crate::msg::{ClientMsg, ServerMsg};
use crate::workload::Workload;

/// Client-side read timeout: generous enough for any loopback run,
/// small enough that a wedged daemon fails a CI job instead of hanging
/// it. A timeout mid-conversation is fatal (frames are not resumable
/// across it), never retried.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A blocking protocol client: one request in flight, replies in order.
#[derive(Debug)]
pub struct DaemonClient {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    /// Frame scratch for outgoing messages.
    buf: Vec<u8>,
}

impl DaemonClient {
    /// Connects to a running daemon.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(stream),
            writer,
            buf: Vec::new(),
        })
    }

    /// Sends one message without waiting for the reply.
    pub fn send(&mut self, msg: &ClientMsg) -> Result<(), FrameError> {
        write_message(&mut self.writer, msg, &mut self.buf)
    }

    /// Receives the next reply; a clean EOF mid-conversation is an
    /// error (the daemon always acks before closing).
    pub fn recv(&mut self) -> Result<ServerMsg, FrameError> {
        self.reader
            .next()?
            .ok_or_else(|| FrameError::Codec("daemon closed the connection mid-call".into()))
    }

    /// One round trip.
    pub fn call(&mut self, msg: &ClientMsg) -> Result<ServerMsg, FrameError> {
        self.send(msg)?;
        self.recv()
    }

    /// `Hello` handshake: fetches the base hit-ratio profile.
    pub fn hello(&mut self) -> Result<Vec<f64>, FrameError> {
        match self.call(&ClientMsg::Hello)? {
            ServerMsg::Profile(p) => Ok(p),
            other => Err(FrameError::Codec(format!(
                "expected Profile, daemon answered {other:?}"
            ))),
        }
    }

    /// Splits into independent read/write halves (open-loop mode).
    fn into_split(self) -> (FrameReader<TcpStream>, TcpStream) {
        (self.reader, self.writer)
    }
}

/// How clients pace their operations.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Closed loop: send, wait for the reply, think, repeat — offered
    /// load adapts to service rate; latency is pure service time.
    Closed {
        /// Pause between a round's allocation and its upload.
        think: Duration,
    },
    /// Open loop: fire on a fixed schedule per client regardless of
    /// outstanding replies — latency includes queueing delay, the
    /// honest tail under overload.
    Open {
        /// Gap between consecutive sends per client.
        period: Duration,
    },
}

/// What a load run measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Per-request wall-clock latency (request *and* upload round
    /// trips), exactly merged across client threads.
    pub hist: LatencyHistogram,
    /// Operations completed (requests + uploads).
    pub ops: u64,
    /// Wall clock from first send to last reply, across the fleet.
    pub wall: Duration,
}

impl LoadReport {
    /// Completed operations per second.
    pub fn throughput_ops_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn fe(e: FrameError) -> String {
    format!("transport: {e}")
}

fn io(e: std::io::Error) -> String {
    format!("io: {e}")
}

/// Runs `wl` against a daemon at `addr` with one thread per client and
/// returns the merged latency histogram. Closed loop waits each reply
/// out; open loop pairs in-order replies with send timestamps on a
/// second thread per client.
pub fn run_load(addr: SocketAddr, wl: &Workload, arrival: Arrival) -> Result<LoadReport, String> {
    let (rt, _, seeds) = wl.spec.build();
    let started = Instant::now();
    let hists: Vec<Result<LatencyHistogram, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..wl.clients)
            .map(|k| {
                let rt = &rt;
                let seeds = &seeds;
                scope.spawn(move || match arrival {
                    Arrival::Closed { think } => run_closed_client(addr, wl, rt, seeds, k, think),
                    Arrival::Open { period } => run_open_client(addr, wl, rt, seeds, k, period),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut merged = LatencyHistogram::new();
    for h in hists {
        merged.merge(&h?);
    }
    Ok(LoadReport {
        ops: merged.count(),
        hist: merged,
        wall,
    })
}

fn run_closed_client(
    addr: SocketAddr,
    wl: &Workload,
    rt: &coca_model::ModelRuntime,
    seeds: &coca_sim::SeedTree,
    k: usize,
    think: Duration,
) -> Result<LatencyHistogram, String> {
    let mut client = DaemonClient::connect(addr).map_err(io)?;
    let profile = client.hello().map_err(fe)?;
    let mut hist = LatencyHistogram::new();
    for round in 0..wl.rounds {
        let req = ClientMsg::Request(wl.request(rt, &profile, k, round));
        let t = Instant::now();
        match client.call(&req).map_err(fe)? {
            ServerMsg::Alloc(_) => hist.record_duration(t.elapsed()),
            other => return Err(format!("expected Alloc, got {other:?}")),
        }
        if !think.is_zero() {
            std::thread::sleep(think);
        }
        let up = ClientMsg::Upload(wl.upload(rt, seeds, k, round));
        let t = Instant::now();
        match client.call(&up).map_err(fe)? {
            ServerMsg::UploadAck(_) => hist.record_duration(t.elapsed()),
            other => return Err(format!("expected UploadAck, got {other:?}")),
        }
    }
    Ok(hist)
}

fn run_open_client(
    addr: SocketAddr,
    wl: &Workload,
    rt: &coca_model::ModelRuntime,
    seeds: &coca_sim::SeedTree,
    k: usize,
    period: Duration,
) -> Result<LatencyHistogram, String> {
    let mut client = DaemonClient::connect(addr).map_err(io)?;
    let profile = client.hello().map_err(fe)?;
    let (mut reader, mut writer) = client.into_split();
    let expected = wl.rounds * 2;
    let (ts_tx, ts_rx) = std::sync::mpsc::channel::<Instant>();
    std::thread::scope(|scope| {
        // Reply half: replies come back in send order (one server
        // thread per connection), so FIFO-pairing each with its send
        // instant is exact. Send instants always land in the channel
        // before the reply can arrive.
        let collector = scope.spawn(move || -> Result<LatencyHistogram, String> {
            let mut hist = LatencyHistogram::new();
            for _ in 0..expected {
                let sent = ts_rx
                    .recv_timeout(CLIENT_READ_TIMEOUT)
                    .map_err(|e| format!("send-timestamp channel: {e:?}"))?;
                let reply: ServerMsg = reader
                    .next()
                    .map_err(fe)?
                    .ok_or("daemon closed the connection mid-run")?;
                match reply {
                    ServerMsg::Alloc(_) | ServerMsg::UploadAck(_) => {
                        hist.record_duration(sent.elapsed());
                    }
                    other => return Err(format!("unexpected reply {other:?}")),
                }
            }
            Ok(hist)
        });
        // Send half: fire on the schedule no matter how far behind the
        // replies are.
        let start = Instant::now();
        let mut seq = 0u32;
        let mut frame = Vec::new();
        for round in 0..wl.rounds {
            let ops = [
                ClientMsg::Request(wl.request(rt, &profile, k, round)),
                ClientMsg::Upload(wl.upload(rt, seeds, k, round)),
            ];
            for op in ops {
                let target = start + period * seq;
                seq += 1;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                ts_tx
                    .send(Instant::now())
                    .map_err(|_| "reply collector died early".to_string())?;
                write_message(&mut writer, &op, &mut frame).map_err(fe)?;
            }
        }
        drop(ts_tx);
        collector.join().expect("reply collector panicked")
    })
}

/// Outcome of [`run_verify`]: both digests, for reporting either way.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// The daemon's post-flush table digest.
    pub daemon_digest: u64,
    /// The in-process reference server's post-flush digest.
    pub local_digest: u64,
    /// Operations driven.
    pub ops: u64,
}

impl VerifyOutcome {
    /// Did the daemon land exactly the reference state?
    pub fn matches(&self) -> bool {
        self.daemon_digest == self.local_digest
    }
}

/// Drives the workload **sequentially** (one operation in flight,
/// round-major / client-minor) against the daemon while replaying the
/// identical sequence on an in-process [`coca_core::CocaServer`], then
/// compares flushed table digests. This is the determinism contract:
/// the network, framing, connection threads and the server lock must be
/// digest-invisible when arrival order is pinned.
pub fn run_verify(addr: SocketAddr, wl: &Workload) -> Result<VerifyOutcome, String> {
    let (rt, cfg, seeds) = wl.spec.build();
    let mut reference = coca_core::CocaServer::new(&rt, cfg, &seeds);
    let mut client = DaemonClient::connect(addr).map_err(io)?;
    let profile = client.hello().map_err(fe)?;
    if profile != reference.base_hit_profile() {
        return Err("daemon and reference disagree on the base hit profile — \
                    different RunSpec on the two ends?"
            .to_string());
    }
    if wl.spec.round_aligned {
        reference.set_flush_watermark(wl.clients);
        match client
            .call(&ClientMsg::SetWatermark(wl.clients))
            .map_err(fe)?
        {
            ServerMsg::WatermarkSet => {}
            other => return Err(format!("expected WatermarkSet, got {other:?}")),
        }
    }
    let mut ops = 0u64;
    for round in 0..wl.rounds {
        for k in 0..wl.clients {
            let req = wl.request(&rt, &profile, k, round);
            let (want, _) = reference.handle_request(&req);
            match client.call(&ClientMsg::Request(req)).map_err(fe)? {
                ServerMsg::Alloc(got) => {
                    if got.cache.total_bytes() != want.cache.total_bytes() {
                        return Err(format!(
                            "allocation diverged at round {round} client {k}: \
                             {} vs {} bytes",
                            got.cache.total_bytes(),
                            want.cache.total_bytes()
                        ));
                    }
                }
                other => return Err(format!("expected Alloc, got {other:?}")),
            }
            let up = wl.upload(&rt, &seeds, k, round);
            reference.handle_upload(up.clone());
            match client.call(&ClientMsg::Upload(up)).map_err(fe)? {
                ServerMsg::UploadAck(queued) => {
                    if queued != reference.pending_uploads() {
                        return Err(format!(
                            "pending-queue depth diverged at round {round} client {k}: \
                             {queued} vs {}",
                            reference.pending_uploads()
                        ));
                    }
                }
                other => return Err(format!("expected UploadAck, got {other:?}")),
            }
            ops += 2;
        }
    }
    reference.flush_pending();
    match client.call(&ClientMsg::Flush).map_err(fe)? {
        ServerMsg::FlushDone => {}
        other => return Err(format!("expected FlushDone, got {other:?}")),
    }
    let daemon_digest = match client.call(&ClientMsg::Digest).map_err(fe)? {
        ServerMsg::Digest(d) => d,
        other => return Err(format!("expected Digest, got {other:?}")),
    };
    Ok(VerifyOutcome {
        daemon_digest,
        local_digest: reference.global().digest(),
        ops,
    })
}

/// Asks the daemon to shut down, tolerating a teardown race on the ack
/// (the socket may drop right after the flag rises). Returns whether a
/// clean `ShuttingDown` ack came back.
pub fn shutdown_daemon(addr: SocketAddr) -> bool {
    let Ok(mut client) = DaemonClient::connect(addr) else {
        return false;
    };
    matches!(
        client.call(&ClientMsg::Shutdown),
        Ok(ServerMsg::ShuttingDown)
    )
}
