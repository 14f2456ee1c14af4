//! Multi-process mode: rank 0 coordinates peer worker processes over TCP,
//! with bounded-time failure detection and elastic membership.
//!
//! Rank 0 opens one connection per peer, ships the immutable session state
//! once ([`proto::Message::Init`]), then per optimizer step sends every
//! peer its shard *before* computing its own shard locally — peers overlap
//! with rank 0 — and collects the per-shard [`MaskGrads`] replies in shard
//! order. The peer side ([`serve_peer_once`]) rebuilds the model from the
//! shipped config, then loops `read step → tape → backward → write grads`
//! until shutdown, emitting [`proto::Message::Heartbeat`] frames on the
//! coordinator-dictated cadence while a tape is in flight.
//!
//! ## Failure model
//!
//! Every rank-0 socket carries a read/write timeout of
//! [`FaultConfig::peer_timeout_ms`], so no peer can hang the coordinator
//! on a blocking read: a peer that is alive but slow keeps heartbeating
//! (each heartbeat resets the clock), while one that is dead, partitioned
//! or wedged is *detected* within one timeout. A detected failure first
//! enters a bounded reconnect window ([`FaultConfig::reconnect_window_ms`],
//! exponential backoff from [`FaultConfig::reconnect_backoff_ms`]): the
//! peer address is re-dialed and the init handshake re-run, which restores
//! the session against a `photonn dist-worker --keep-alive` process that
//! merely dropped a connection. Only when the window closes without a
//! session is the peer *confirmed lost*; [`TcpPool::elastic_step`] then
//! removes it and recomputes the interrupted step from scratch over the
//! survivors — `shard_batch` with `N−1` workers and the unchanged global
//! denominator, which is exactly the split a fresh `N−1`-worker run would
//! use, so every post-loss gradient (and therefore the rest of the run) is
//! bit-identical to that fresh run. A floor of `min_workers` turns further
//! losses into a loud [`DistError::BelowMinWorkers`] instead of a silent
//! crawl.
//!
//! [`DistError::BelowMinWorkers`]: crate::DistError::BelowMinWorkers

use photonn_autodiff::MaskGrads;
use photonn_datasets::Dataset;
use photonn_donn::train::shard_gradients;
use photonn_donn::{Donn, DonnConfig};
use photonn_math::Grid;
use photonn_wire::{is_timeout, read_frame, write_frame, FrameError};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::proto::{decode, encode, Message};
use crate::shard::shard_batch;
use crate::train::DistError;
use crate::worker::all_reduce;

/// Timeout, heartbeat and reconnect tuning for the TCP transport. All
/// durations are milliseconds so the struct stays `Eq` and CLI-friendly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Cadence of peer heartbeats while a shard tape is in flight; shipped
    /// to peers in the init handshake. `0` disables heartbeats.
    pub heartbeat_ms: u64,
    /// Read/write timeout on every rank-0 peer socket, and the silence
    /// threshold after which a peer is *detected* as failed. Must comfortably
    /// exceed `heartbeat_ms`. `0` means wait forever (fail-stop-by-hang;
    /// only for debugging).
    pub peer_timeout_ms: u64,
    /// Total wall-clock budget for re-dialing a detected-failed peer
    /// before it is *confirmed lost* and its shard re-split. `0` disables
    /// reconnection: first detection is confirmation.
    pub reconnect_window_ms: u64,
    /// First reconnect backoff; doubles per attempt within the window.
    pub reconnect_backoff_ms: u64,
}

impl Default for FaultConfig {
    /// 500 ms heartbeats, 10 s silence threshold, 8 s reconnect window
    /// starting at 100 ms backoff.
    fn default() -> Self {
        FaultConfig {
            heartbeat_ms: 500,
            peer_timeout_ms: 10_000,
            reconnect_window_ms: 8_000,
            reconnect_backoff_ms: 100,
        }
    }
}

impl FaultConfig {
    fn peer_timeout(&self) -> Option<Duration> {
        (self.peer_timeout_ms > 0).then(|| Duration::from_millis(self.peer_timeout_ms))
    }
}

/// Write timeout on peer-side sockets: a heartbeat or gradients write into
/// a vanished coordinator's full socket buffer must fail in bounded time
/// so the serve loop can move on to the next session.
const PEER_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

fn protocol_error(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn expect_message(payload: &[u8], grid: Option<usize>) -> io::Result<Message> {
    decode(payload, grid).map_err(protocol_error)
}

/// One buffered, nodelay connection speaking framed protocol messages.
struct Framed {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Framed {
    fn new(
        stream: TcpStream,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> io::Result<Framed> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        stream.set_write_timeout(write_timeout)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Framed {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, msg: &Message) -> io::Result<()> {
        write_frame(&mut self.writer, &encode(msg))
    }

    fn recv(&mut self, grid: Option<usize>) -> io::Result<Message> {
        let payload = read_frame(&mut self.reader).map_err(io::Error::from)?;
        expect_message(&payload, grid)
    }
}

/// One connected peer: its dial address (for reconnection), the live
/// connection, and how many step frames are in flight on it (sent but not
/// yet answered with gradients) — the bookkeeping that lets an aborted
/// step attempt drain stale replies instead of desyncing the stream.
struct Peer {
    addr: String,
    framed: Framed,
    pending: usize,
}

/// Rank 0's handle on a set of connected, initialized peer workers.
pub struct TcpPool {
    peers: Vec<Peer>,
    grid: usize,
    /// The serialized init handshake, kept so a reconnect can re-run it.
    init_payload: Vec<u8>,
    fault: FaultConfig,
}

impl TcpPool {
    /// Connects to every peer address and runs the init handshake: full
    /// model configuration, the training set, optional freeze masks and
    /// the heartbeat cadence. Returns once every peer has answered
    /// `ready`. The initial connect is strict — a hostfile peer that is
    /// down at launch fails the run loudly rather than starting degraded.
    ///
    /// # Errors
    ///
    /// Returns connect/transport errors, or `InvalidData` when a peer
    /// answers with anything but `ready`.
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(
        peer_addrs: &[A],
        config: &DonnConfig,
        data: &Dataset,
        freeze: Option<&[Arc<Grid>]>,
        fault: FaultConfig,
    ) -> io::Result<TcpPool> {
        let init = Message::Init {
            config: *config,
            images: (0..data.len()).map(|i| data.image(i).clone()).collect(),
            labels: (0..data.len()).map(|i| data.label(i)).collect(),
            freeze: freeze.map(|fz| fz.iter().map(|k| k.as_ref().clone()).collect()),
            heartbeat_ms: fault.heartbeat_ms,
        };
        let init_payload = encode(&init);
        let grid = config.grid();
        let mut peers = Vec::with_capacity(peer_addrs.len());
        for addr in peer_addrs {
            let addr = addr.to_string();
            let framed = dial(&addr, &fault, &init_payload, grid, None)
                .map_err(|e| io::Error::new(e.kind(), format!("peer {addr}: {e}")))?;
            peers.push(Peer {
                addr,
                framed,
                pending: 0,
            });
        }
        Ok(TcpPool {
            peers,
            grid,
            init_payload,
            fault,
        })
    }

    /// Number of connected peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when no peers are connected.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The dial addresses of the currently connected peers, in shard
    /// order — shrinks as peers are confirmed lost.
    pub fn peer_addrs(&self) -> Vec<String> {
        self.peers.iter().map(|p| p.addr.clone()).collect()
    }

    /// Sends shard `i` to peer `i` (current masks + indices + global
    /// denominator), serializing the shared mask payload once for all
    /// peers ([`crate::proto::encode_steps`]). `shards.len()` may be
    /// smaller than the pool on a degenerate batch — the surplus peers
    /// simply sit this step out.
    ///
    /// # Errors
    ///
    /// Returns transport errors; panics if more shards than peers.
    pub fn send_steps(
        &mut self,
        masks: &[Grid],
        shards: &[&[usize]],
        denom: usize,
    ) -> io::Result<()> {
        assert!(shards.len() <= self.peers.len(), "more shards than peers");
        let payloads = crate::proto::encode_steps(masks, shards, denom);
        for (peer, payload) in self.peers.iter_mut().zip(&payloads) {
            write_frame(&mut peer.framed.writer, payload)?;
            peer.pending += 1;
        }
        Ok(())
    }

    /// Collects one [`MaskGrads`] from each of the first `count` peers, in
    /// peer (= shard) order, so the downstream tree reduce sees a
    /// deterministic sequence no matter which peer finished first.
    /// Heartbeat frames are consumed transparently.
    ///
    /// # Errors
    ///
    /// Returns transport errors (a `TimedOut` kind means the peer went
    /// silent past the fault config's threshold), or `InvalidData` when a
    /// peer answers with anything but `grads`.
    pub fn collect_grads(&mut self, count: usize) -> io::Result<Vec<MaskGrads>> {
        assert!(count <= self.peers.len(), "more shards than peers");
        (0..count).map(|i| self.recv_grads(i)).collect()
    }

    /// Reads frames from peer `i` until its gradients arrive, treating
    /// heartbeats as liveness (each one restarts the socket's read
    /// timeout, since a fresh blocking read begins).
    fn recv_grads(&mut self, i: usize) -> io::Result<MaskGrads> {
        let grid = self.grid;
        let peer = &mut self.peers[i];
        loop {
            let payload = read_frame(&mut peer.framed.reader).map_err(|e| {
                let e = io::Error::from(e);
                if is_timeout(&e) {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "peer {} silent for {} ms (no heartbeat, no gradients)",
                            peer.addr, self.fault.peer_timeout_ms
                        ),
                    )
                } else {
                    e
                }
            })?;
            match expect_message(&payload, Some(grid))? {
                Message::Heartbeat => continue,
                Message::Grads(mg) => {
                    peer.pending = peer.pending.saturating_sub(1);
                    return Ok(mg);
                }
                other => {
                    return Err(protocol_error(format!(
                        "peer {} answered {other:?} instead of grads",
                        peer.addr
                    )))
                }
            }
        }
    }

    /// Discards stale gradients left in flight by an aborted step attempt,
    /// so the next attempt's replies pair with the next attempt's sends.
    fn drain_pending(&mut self, i: usize) -> io::Result<()> {
        while self.peers[i].pending > 0 {
            let _ = self.recv_grads(i)?;
        }
        Ok(())
    }

    /// One *elastic* optimizer step: drain stale replies, ship the remote
    /// shards, compute shard 0 locally, collect — and on any peer failure,
    /// reconnect-or-resplit and retry the whole step on the surviving
    /// membership. Each retry recomputes the step as a pure function of
    /// `(masks, batch, surviving worker count)`, so the returned gradient
    /// is always exactly what a fresh run with the final membership would
    /// produce.
    ///
    /// # Errors
    ///
    /// [`DistError::BelowMinWorkers`] when a confirmed loss would shrink
    /// the run under `min_workers`. Transport errors never escape directly
    /// — they are what the reconnect/resplit machinery consumes.
    pub fn elastic_step(
        &mut self,
        donn: &Donn,
        data: &Dataset,
        batch: &[usize],
        freeze: Option<&[Arc<Grid>]>,
        threads: usize,
        min_workers: usize,
    ) -> Result<(Vec<Grid>, f64), DistError> {
        loop {
            match self.step_attempt(donn, data, batch, freeze, threads) {
                Ok(parts) => return Ok(all_reduce(parts, donn.masks(), freeze)),
                Err((idx, err)) => self.recover_peer(idx, &err, min_workers)?,
            }
        }
    }

    /// One send/compute/collect pass over the current membership. On
    /// failure returns the index of the offending peer alongside the
    /// error.
    fn step_attempt(
        &mut self,
        donn: &Donn,
        data: &Dataset,
        batch: &[usize],
        freeze: Option<&[Arc<Grid>]>,
        threads: usize,
    ) -> Result<Vec<MaskGrads>, (usize, io::Error)> {
        let denom = batch.len();
        let shards = shard_batch(batch, self.peers.len() + 1);
        for i in 0..self.peers.len() {
            self.drain_pending(i).map_err(|e| (i, e))?;
        }
        {
            let _span = photonn_trace::span("dist.wire_serialize");
            let payloads = crate::proto::encode_steps(donn.masks(), &shards[1..], denom);
            for (i, payload) in payloads.iter().enumerate() {
                write_frame(&mut self.peers[i].framed.writer, payload).map_err(|e| (i, e))?;
                self.peers[i].pending += 1;
            }
        }
        let local = {
            let _span = photonn_trace::span("dist.shard_compute");
            shard_gradients(donn, data, shards[0], freeze, threads, denom)
        };
        let mut parts = vec![local];
        {
            let _span = photonn_trace::span("dist.allreduce_wait");
            for i in 0..shards.len() - 1 {
                parts.push(self.recv_grads(i).map_err(|e| (i, e))?);
            }
        }
        Ok(parts)
    }

    /// Recovery ladder for a failed peer: bounded reconnect-with-backoff,
    /// then confirmed loss and membership shrink, then the `min_workers`
    /// floor.
    fn recover_peer(
        &mut self,
        idx: usize,
        err: &io::Error,
        min_workers: usize,
    ) -> Result<(), DistError> {
        eprintln!(
            "photonn-dist: peer {} failed ({err}); reconnecting for up to {} ms",
            self.peers[idx].addr, self.fault.reconnect_window_ms
        );
        let reconnected = {
            let _span = photonn_trace::span("dist.reconnect");
            self.try_reconnect(idx)
        };
        if reconnected {
            eprintln!(
                "photonn-dist: peer {} session restored",
                self.peers[idx].addr
            );
            return Ok(());
        }
        let _span = photonn_trace::span("dist.resplit");
        let lost = self.peers.remove(idx);
        let survivors = self.peers.len() + 1;
        if survivors < min_workers {
            return Err(DistError::BelowMinWorkers {
                addr: lost.addr,
                survivors,
                min_workers,
            });
        }
        eprintln!(
            "photonn-dist: peer {} confirmed lost; re-splitting over {survivors} worker(s)",
            lost.addr
        );
        Ok(())
    }

    /// Re-dials peer `idx` with exponential backoff inside the fault
    /// config's reconnect window, re-running the full init handshake on
    /// success (the peer side treats every accepted connection as a fresh
    /// session). Returns `false` once the window closes.
    fn try_reconnect(&mut self, idx: usize) -> bool {
        if self.fault.reconnect_window_ms == 0 {
            return false;
        }
        let deadline = Instant::now() + Duration::from_millis(self.fault.reconnect_window_ms);
        let mut backoff = Duration::from_millis(self.fault.reconnect_backoff_ms.max(1));
        let addr = self.peers[idx].addr.clone();
        loop {
            match dial(
                &addr,
                &self.fault,
                &self.init_payload,
                self.grid,
                Some(deadline),
            ) {
                Ok(framed) => {
                    let peer = &mut self.peers[idx];
                    peer.framed = framed;
                    peer.pending = 0;
                    return true;
                }
                Err(e) => {
                    let now = Instant::now();
                    if now + backoff >= deadline {
                        eprintln!("photonn-dist: reconnect window for {addr} closed: {e}");
                        return false;
                    }
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    /// Tells every peer the session is over. Transport errors are ignored
    /// — the peers' frame reader treats a vanished coordinator the same
    /// way.
    pub fn shutdown(mut self) {
        for peer in &mut self.peers {
            let _ = peer.framed.send(&Message::Shutdown);
        }
    }
}

/// Dials `addr`, applies the fault config's socket timeouts, and runs the
/// init handshake. `deadline` (when reconnecting) bounds the connect
/// attempt itself; the handshake read is bounded by the peer timeout.
fn dial(
    addr: &str,
    fault: &FaultConfig,
    init_payload: &[u8],
    grid: usize,
    deadline: Option<Instant>,
) -> io::Result<Framed> {
    let stream = match deadline {
        None => TcpStream::connect(addr)?,
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "reconnect window exhausted",
                ));
            }
            let sock = addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| protocol_error(format!("peer address {addr} did not resolve")))?;
            TcpStream::connect_timeout(&sock, remaining)?
        }
    };
    let mut framed = Framed::new(stream, fault.peer_timeout(), fault.peer_timeout())?;
    write_frame(&mut framed.writer, init_payload)?;
    match framed.recv(Some(grid))? {
        Message::Ready => Ok(framed),
        other => Err(protocol_error(format!(
            "peer {addr} answered {other:?} instead of ready"
        ))),
    }
}

/// Runs one shard tape while keeping the coordinator's failure detector
/// fed: the tape runs on a scoped thread and this thread emits a
/// heartbeat frame every `heartbeat_ms` until the gradients are ready.
/// With heartbeats disabled (`heartbeat_ms == 0`) the tape runs inline.
#[allow(clippy::too_many_arguments)]
fn compute_with_heartbeats(
    framed: &mut Framed,
    donn: &Donn,
    data: &Dataset,
    shard: &[usize],
    freeze: Option<&[Arc<Grid>]>,
    threads: usize,
    denom: usize,
    heartbeat_ms: u64,
) -> io::Result<MaskGrads> {
    if heartbeat_ms == 0 {
        return Ok(shard_gradients(donn, data, shard, freeze, threads, denom));
    }
    let interval = Duration::from_millis(heartbeat_ms);
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        scope.spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shard_gradients(donn, data, shard, freeze, threads, denom)
            }));
            // The receiver only disappears if the session already failed;
            // nothing to report to in that case.
            let _ = tx.send(result);
        });
        loop {
            match rx.recv_timeout(interval) {
                Ok(Ok(mg)) => return Ok(mg),
                Ok(Err(_panic)) => {
                    return Err(io::Error::other(
                        "shard tape panicked on this peer (mask/dataset shape mismatch?)",
                    ))
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    let _hb = photonn_trace::span("dist.heartbeat");
                    framed.send(&Message::Heartbeat)?;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other("shard tape thread vanished"));
                }
            }
        }
    })
}

/// Serves exactly one coordinator session on an already-bound listener:
/// accepts one connection, answers its init handshake, then computes shard
/// gradients (FFT work on `threads` chunk threads) until the coordinator
/// sends `shutdown` or disconnects, heartbeating on the cadence the init
/// dictated. Used by `photonn dist-worker` and the `dist_digits` example's
/// self-spawned peers.
///
/// # Errors
///
/// Returns transport errors and `InvalidData` on protocol violations.
pub fn serve_peer_once(listener: &TcpListener, threads: usize) -> io::Result<()> {
    let (stream, _) = listener.accept()?;
    let mut framed = Framed::new(stream, None, Some(PEER_WRITE_TIMEOUT))?;
    let (config, data, freeze, heartbeat_ms) = match framed.recv(None)? {
        Message::Init {
            config,
            images,
            labels,
            freeze,
            heartbeat_ms,
        } => (
            config,
            Dataset::new("shipped", images, labels),
            freeze.map(|fz| fz.into_iter().map(Arc::new).collect::<Vec<Arc<Grid>>>()),
            heartbeat_ms,
        ),
        other => {
            return Err(protocol_error(format!(
                "coordinator opened with {other:?} instead of init"
            )))
        }
    };
    let mut donn = Donn::new(config);
    framed.send(&Message::Ready)?;
    loop {
        let payload = match read_frame(&mut framed.reader) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => return Ok(()), // coordinator hung up
            Err(e) => return Err(e.into()),
        };
        match expect_message(&payload, Some(config.grid()))? {
            Message::Step {
                masks,
                shard,
                denom,
            } => {
                check_step(config.num_layers, data.len(), masks.len(), &shard, denom)?;
                donn.set_masks(masks);
                let mg = compute_with_heartbeats(
                    &mut framed,
                    &donn,
                    &data,
                    &shard,
                    freeze.as_deref(),
                    threads,
                    denom,
                    heartbeat_ms,
                )?;
                framed.send(&Message::Grads(mg))?;
            }
            Message::Shutdown => return Ok(()),
            other => {
                return Err(protocol_error(format!(
                    "coordinator sent {other:?} mid-session"
                )))
            }
        }
    }
}

/// Refuses a step the peer cannot run against its init, naming the
/// field: `Donn::set_masks` and `shard_gradients` would panic on it. The
/// step's mask shapes are already fixed by `decode` at the init's grid.
fn check_step(
    layers: usize,
    images: usize,
    masks: usize,
    shard: &[usize],
    denom: usize,
) -> io::Result<()> {
    if masks != layers {
        return Err(protocol_error(format!(
            "step \"masks\" counts {masks} for {layers} layers"
        )));
    }
    if shard.is_empty() {
        return Err(protocol_error("step \"shard\" is empty".into()));
    }
    if let Some(index) = shard.iter().find(|&&i| i >= images) {
        return Err(protocol_error(format!(
            "step \"shard\" holds {index}, outside the {images} shipped images"
        )));
    }
    if denom < shard.len() {
        return Err(protocol_error(format!(
            "step \"denom\" {denom} is below the shard's {} samples",
            shard.len()
        )));
    }
    Ok(())
}

/// [`serve_peer_once`] in a loop: the worker stays up and serves
/// coordinator sessions back to back (the `photonn dist-worker
/// --keep-alive` mode) — which is also what makes it *reconnectable*: a
/// coordinator whose connection dropped re-dials and gets a fresh session.
/// Session-level protocol errors are logged to stderr and the worker keeps
/// accepting; only listener-level errors return.
///
/// # Errors
///
/// Returns errors from `TcpListener::accept` itself.
pub fn serve_peer_forever(listener: &TcpListener, threads: usize) -> io::Result<()> {
    loop {
        if let Err(e) = serve_peer_once(listener, threads) {
            eprintln!("photonn-dist peer: session ended with error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonn_datasets::Family;

    #[test]
    fn malformed_steps_end_the_session_by_field_name() {
        // A panic on the peer thread would take down a `dist-worker
        // --keep-alive` process: each malformed step must instead end the
        // session with an error naming the field.
        let config = DonnConfig::scaled(16);
        let data = Dataset::synthetic(Family::Mnist, 4, 7).resized(16);
        let masks = vec![Grid::zeros(16, 16); config.num_layers];
        let cases = [
            (masks[..1].to_vec(), vec![0], 4, "masks"),
            (masks.clone(), vec![9], 4, "shard"),
            (masks.clone(), vec![], 4, "shard"),
            (masks, vec![0, 1], 0, "denom"),
        ];
        for (masks, shard, denom, field) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let peer = std::thread::spawn(move || serve_peer_once(&listener, 1));
            let stream = TcpStream::connect(addr).expect("connect");
            let mut framed = Framed::new(stream, None, None).expect("framed");
            framed
                .send(&Message::Init {
                    config,
                    images: (0..data.len()).map(|i| data.image(i).clone()).collect(),
                    labels: (0..data.len()).map(|i| data.label(i)).collect(),
                    freeze: None,
                    heartbeat_ms: 0,
                })
                .expect("send init");
            assert!(matches!(framed.recv(None), Ok(Message::Ready)));
            framed
                .send(&Message::Step {
                    masks,
                    shard,
                    denom,
                })
                .expect("send step");
            let err = peer
                .join()
                .expect("the peer must not panic")
                .expect_err("the session must end with an error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field}: {err}");
            assert!(
                err.to_string().contains(field),
                "{err} does not name {field}"
            );
        }
    }
}
