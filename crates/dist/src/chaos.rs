//! Deterministic fault injection for the TCP transport: a frame-aware
//! proxy that sits between rank 0 and one peer and misbehaves on cue.
//!
//! Tests spawn one [`ChaosProxy`] per peer and hand rank 0 the proxy
//! addresses instead of the real ones. The proxy forwards whole protocol
//! frames (it reads them with [`photonn_wire::read_frame`], under the same
//! size cap, and reads the header's `type` through `proto`'s header
//! reader, nothing more) and consults a [`ChaosSchedule`] before
//! forwarding each one. Because events are keyed on *(direction, message
//! type, occurrence)* rather than raw frame counts, a schedule keeps
//! targeting the same protocol moment even when recovery traffic (extra
//! init handshakes after a reconnect) shifts the absolute frame sequence —
//! which is what makes chaos runs reproducible enough to assert
//! bit-identical masks.
//!
//! Failure is injected exclusively through *closed connections and closed
//! sessions*, never through timers racing the transport's timeouts, so a
//! chaos test's outcome does not depend on scheduler timing:
//!
//! * [`ChaosAction::DropConnection`] / [`ChaosAction::Truncate`] sever one
//!   connection (the latter after leaking a torn frame); rank 0 sees an
//!   immediate EOF/decode error and its reconnect succeeds on the first
//!   re-dial because the proxy keeps listening.
//! * [`ChaosAction::KillPeer`] additionally poisons the proxy: every later
//!   accepted connection is shut down on sight. The port stays *bound* (so
//!   the OS cannot recycle it for an unrelated test listener) but no
//!   session can ever be re-established — reconnects fail deterministically
//!   and the peer is confirmed lost as soon as the reconnect window closes.
//! * [`ChaosAction::DelayMs`] holds a frame briefly — exercising the
//!   heartbeat/timeout plumbing without approaching any deadline.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use photonn_math::Rng;
use photonn_wire::{read_frame, write_frame};

use crate::proto;

/// Which way a frame is travelling through the proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Rank 0 → peer (init, step, shutdown frames).
    ToPeer,
    /// Peer → rank 0 (ready, heartbeat, grads frames).
    FromPeer,
}

/// What to do to a matched frame instead of forwarding it faithfully.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Sever this connection without forwarding the frame. Recoverable:
    /// the proxy keeps listening, so rank 0's first re-dial restores the
    /// session.
    DropConnection,
    /// Hold the frame for this many milliseconds, then forward it intact.
    DelayMs(u64),
    /// Forward the length prefix and half the payload, then sever the
    /// connection — the receiver sees a torn frame (mid-frame EOF).
    /// Recoverable, like [`ChaosAction::DropConnection`].
    Truncate,
    /// Sever the connection *and* refuse every future session: the peer
    /// is gone for good as far as rank 0 can ever observe.
    KillPeer,
}

/// One scheduled misbehavior: fires on the `occurrence`-th frame (0-based,
/// counted over the proxy's whole lifetime, across reconnections) of the
/// given type travelling in the given direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Frame direction to match.
    pub direction: Direction,
    /// Protocol message type to match (`"step"`, `"grads"`, `"init"`, …),
    /// as read from the frame header's `type` field.
    pub message_type: String,
    /// Which matching frame fires the event, 0-based.
    pub occurrence: usize,
    /// What happens to that frame.
    pub action: ChaosAction,
}

/// A full injection schedule. Each event fires at most once; unmatched
/// frames pass through untouched.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    /// The events, in no particular order (matching is by key, not rank).
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// A schedule with the given events.
    pub fn new(events: Vec<ChaosEvent>) -> Self {
        ChaosSchedule { events }
    }

    /// The empty schedule: a faithful byte-for-byte proxy.
    pub fn passthrough() -> Self {
        ChaosSchedule::default()
    }

    /// Draws `events` *recoverable* misbehaviors (drops, delays,
    /// truncations aimed at step/grads traffic — never [`KillPeer`]) from
    /// a seeded [`photonn_math::Rng`]. The same seed always yields the
    /// same schedule, and because every drawn action is recoverable, a
    /// training run behind any seeded schedule must still produce
    /// bit-identical masks to an undisturbed run.
    ///
    /// [`KillPeer`]: ChaosAction::KillPeer
    pub fn seeded(seed: u64, events: usize) -> Self {
        let mut rng = Rng::seed_from(seed);
        let drawn = (0..events)
            .map(|_| {
                let (direction, message_type) = if rng.below(2) == 0 {
                    (Direction::ToPeer, "step")
                } else {
                    (Direction::FromPeer, "grads")
                };
                let action = match rng.below(3) {
                    0 => ChaosAction::DropConnection,
                    1 => ChaosAction::DelayMs(5 + 5 * rng.below(4) as u64),
                    _ => ChaosAction::Truncate,
                };
                ChaosEvent {
                    direction,
                    message_type: message_type.to_string(),
                    occurrence: rng.below(6),
                    action,
                }
            })
            .collect();
        ChaosSchedule { events: drawn }
    }
}

/// Occurrence counters plus the not-yet-fired events, shared by the pump
/// threads of every connection the proxy ever accepts.
struct ScheduleState {
    counts: HashMap<(Direction, String), usize>,
    events: Vec<(ChaosEvent, bool)>,
}

impl ScheduleState {
    fn new(schedule: ChaosSchedule) -> Self {
        ScheduleState {
            counts: HashMap::new(),
            events: schedule.events.into_iter().map(|e| (e, false)).collect(),
        }
    }

    /// Counts one frame and returns the action of the first unfired event
    /// it matches, marking that event fired.
    fn action_for(&mut self, direction: Direction, message_type: &str) -> Option<ChaosAction> {
        let count = self
            .counts
            .entry((direction, message_type.to_string()))
            .or_insert(0);
        let occurrence = *count;
        *count += 1;
        for (event, fired) in &mut self.events {
            if !*fired
                && event.direction == direction
                && event.message_type == message_type
                && event.occurrence == occurrence
            {
                *fired = true;
                return Some(event.action.clone());
            }
        }
        None
    }
}

/// A chaos proxy for one peer: listens on an ephemeral loopback port,
/// relays framed traffic to `upstream`, and applies its schedule. Dropping
/// the proxy stops the accept loop and releases the port.
pub struct ChaosProxy {
    addr: SocketAddr,
    killed: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a fresh loopback port and starts proxying to `upstream`
    /// (the real peer's `host:port`).
    ///
    /// # Errors
    ///
    /// Returns errors from binding the listener.
    pub fn spawn(upstream: String, schedule: ChaosSchedule) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let killed = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(ScheduleState::new(schedule)));
        let accept_thread = {
            let (killed, stop) = (Arc::clone(&killed), Arc::clone(&stop));
            std::thread::spawn(move || accept_loop(listener, upstream, state, killed, stop))
        };
        Ok(ChaosProxy {
            addr,
            killed,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address rank 0 should dial instead of the real peer.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// `true` once a [`ChaosAction::KillPeer`] event has fired.
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Accepts connections until stopped. A killed proxy keeps the port bound
/// but shuts every new connection on sight, so re-dials fail immediately
/// and deterministically (and the port cannot be recycled mid-test).
fn accept_loop(
    listener: TcpListener,
    upstream: String,
    state: Arc<Mutex<ScheduleState>>,
    killed: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                if killed.load(Ordering::SeqCst) {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                if let Err(e) = serve_connection(client, &upstream, &state, &killed) {
                    eprintln!("chaos proxy: connection setup failed: {e}");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("chaos proxy: accept failed: {e}");
                return;
            }
        }
    }
}

/// Dials upstream for a freshly accepted client and starts the two pump
/// threads (one per direction). The pumps own stream clones and exit when
/// either side closes or an action severs the connection.
fn serve_connection(
    client: TcpStream,
    upstream: &str,
    state: &Arc<Mutex<ScheduleState>>,
    killed: &Arc<AtomicBool>,
) -> io::Result<()> {
    client.set_nonblocking(false)?;
    client.set_nodelay(true)?;
    let peer = TcpStream::connect(upstream)?;
    peer.set_nodelay(true)?;
    for (direction, src, dst) in [
        (Direction::ToPeer, client.try_clone()?, peer.try_clone()?),
        (Direction::FromPeer, peer, client),
    ] {
        let state = Arc::clone(state);
        let killed = Arc::clone(killed);
        std::thread::spawn(move || pump(src, dst, direction, state, killed));
    }
    Ok(())
}

/// The protocol message type of a frame payload, or `"unknown"` when its
/// header does not parse.
fn sniff_type(payload: &[u8]) -> String {
    proto::message_type(payload).unwrap_or_else(|_| "unknown".to_string())
}

/// Forwards frames from `src` to `dst`, applying scheduled actions.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    direction: Direction,
    state: Arc<Mutex<ScheduleState>>,
    killed: Arc<AtomicBool>,
) {
    let sever = |a: &TcpStream, b: &TcpStream| {
        let _ = a.shutdown(Shutdown::Both);
        let _ = b.shutdown(Shutdown::Both);
    };
    loop {
        let payload = match read_frame(&mut src) {
            Ok(payload) => payload,
            Err(_) => {
                // One side hung up (or was severed by the other pump), or
                // sent a torn or oversized frame: propagate the close and
                // retire.
                sever(&src, &dst);
                return;
            }
        };
        let message_type = sniff_type(&payload);
        let action = state
            .lock()
            .expect("chaos schedule lock")
            .action_for(direction, &message_type);
        match action {
            None => {}
            Some(ChaosAction::DelayMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(ChaosAction::DropConnection) => {
                sever(&src, &dst);
                return;
            }
            Some(ChaosAction::Truncate) => {
                let _ = dst.write_all(&(payload.len() as u32).to_le_bytes());
                let _ = dst.write_all(&payload[..payload.len() / 2]);
                sever(&src, &dst);
                return;
            }
            Some(ChaosAction::KillPeer) => {
                killed.store(true, Ordering::SeqCst);
                sever(&src, &dst);
                return;
            }
        }
        if write_frame(&mut dst, &payload).is_err() {
            sever(&src, &dst);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = ChaosSchedule::seeded(42, 5);
        let b = ChaosSchedule::seeded(42, 5);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.events.len(), 5);
        let c = ChaosSchedule::seeded(43, 5);
        assert_ne!(a, c, "different seed, different schedule");
        for event in &a.events {
            assert_ne!(
                event.action,
                ChaosAction::KillPeer,
                "seeded schedules draw only recoverable actions"
            );
        }
    }

    #[test]
    fn occurrence_matching_is_keyed_not_positional() {
        let mut state = ScheduleState::new(ChaosSchedule::new(vec![ChaosEvent {
            direction: Direction::ToPeer,
            message_type: "step".to_string(),
            occurrence: 1,
            action: ChaosAction::DropConnection,
        }]));
        // Interleaved inits and grads do not advance the step counter.
        assert_eq!(state.action_for(Direction::ToPeer, "init"), None);
        assert_eq!(state.action_for(Direction::ToPeer, "step"), None);
        assert_eq!(state.action_for(Direction::FromPeer, "grads"), None);
        assert_eq!(state.action_for(Direction::ToPeer, "init"), None);
        assert_eq!(
            state.action_for(Direction::ToPeer, "step"),
            Some(ChaosAction::DropConnection),
            "second step frame fires the event"
        );
        // Events fire at most once.
        assert_eq!(state.action_for(Direction::ToPeer, "step"), None);
    }

    #[test]
    fn oversized_length_prefix_severs_the_connection() {
        // A prefix past MAX_FRAME_BYTES must close the connection at once
        // instead of allocating the advertised length and waiting for it.
        use std::io::Read;
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let proxy = ChaosProxy::spawn(
            upstream.local_addr().unwrap().to_string(),
            ChaosSchedule::passthrough(),
        )
        .expect("proxy");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut byte = [0u8; 1];
        let got = client
            .read(&mut byte)
            .expect("the proxy closes, not stalls");
        assert_eq!(got, 0, "connection closed");
    }

    #[test]
    fn type_sniffing_reads_the_json_type_field() {
        use photonn_autodiff::MaskGrads;
        use photonn_donn::DonnConfig;
        use photonn_math::{CGrid, Grid};

        // The step's mask bulk spells a grads header's type field in its
        // bytes: only the header may decide the type.
        let decoy: Vec<f64> = b"\"type\":\"grads\"\0\0"
            .chunks(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let masks = vec![Grid::from_vec(1, 2, decoy)];
        let cases = [
            (
                proto::Message::Init {
                    config: DonnConfig::scaled(16),
                    images: vec![Grid::zeros(16, 16)],
                    labels: vec![3],
                    freeze: None,
                    heartbeat_ms: 20,
                },
                "init",
            ),
            (proto::Message::Ready, "ready"),
            (proto::Message::Heartbeat, "heartbeat"),
            (
                proto::Message::Step {
                    masks,
                    shard: vec![0, 1],
                    denom: 2,
                },
                "step",
            ),
            (
                proto::Message::Grads(MaskGrads {
                    wgrads: vec![CGrid::zeros(4, 4)],
                    loss: f64::NAN,
                    samples: 2,
                }),
                "grads",
            ),
            (proto::Message::Shutdown, "shutdown"),
        ];
        for (msg, want) in cases {
            assert_eq!(sniff_type(&proto::encode(&msg)), want);
        }
        assert_eq!(sniff_type(b"not a frame at all"), "unknown");
        assert_eq!(sniff_type(&[]), "unknown");
    }
}
