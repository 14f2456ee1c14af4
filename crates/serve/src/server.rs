//! The event-loop front end: a readiness-polling HTTP/1.1 server over
//! `std::net` that feeds the dispatcher pool and reports metrics.
//!
//! One event-loop thread owns every connection. Sockets are nonblocking;
//! a [`Poller`] (epoll on Linux, `poll(2)` elsewhere) reports readiness,
//! and each connection is a small state machine: bytes accumulate in a
//! read buffer, [`parse_available`] lifts complete requests out of it
//! zero-copy, inference work is submitted to the [`ShardPool`], and
//! responses serialize into a write buffer drained as the socket allows.
//! Dispatchers hand finished batches back through a [`CompletionSink`]
//! whose waker interrupts the poll.
//!
//! Pipelined requests on one connection are answered **in request
//! order** regardless of which dispatcher finished first: each request
//! takes a response *slot*, and only the front slot of a connection may
//! serialize. That write-layer ordering is what lets any dispatcher take
//! any job from the shared queue without ever reordering a client's view.
//!
//! Shutdown is graceful: the pool drains (every accepted request is
//! answered), the loop flushes every connection, then everything joins.
//!
//! Two HTTP namespaces share the loop:
//!
//! * `/v1` — the original wire format, **byte-identical** to the
//!   pre-event-loop server (pinned by committed fixtures).
//! * `/v2` — batched inputs, per-request model-variant and readout-head
//!   selection, and structured errors
//!   (`{"code", "message", "retry_after_ms"}`).

use crate::cache::FirstHopCache;
use crate::head::ReadoutHead;
use crate::http::{parse_available, write_response, ParseOutcome, ProtocolError, RequestRef};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::poll::{Interest, Poller, WakeHandle, Waker};
use crate::registry::ModelRegistry;
use crate::shard::{
    BatchPolicy, Completion, CompletionHandle, CompletionSink, ShardPool, SubmitError,
};
use photonn_donn::argmax;
use photonn_math::Grid;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll timeout while serving; bounds how stale the shutdown check gets
/// when neither sockets nor the waker fire.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);
/// Poll timeout while draining for shutdown.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);
/// How long the listener stays paused after a persistent `accept` failure
/// (EMFILE/ENFILE under fd pressure) before the loop re-arms it.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);
/// How long shutdown waits for stalled peers before force-closing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
/// Connection tokens start here; low half encodes `slot + 2`, high half
/// the slot's generation (so a completion for a closed-and-recycled
/// connection can never reach the wrong peer).
fn conn_token(slot: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | (slot as u64 + 2)
}

/// Server construction options — the full set behind [`ServerBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Dispatcher coalescing policy; its queue bound counts every job
    /// parked in the one shared queue.
    pub policy: BatchPolicy,
    /// Input-hop cache budget in bytes; `0` disables the cache.
    pub cache_budget_bytes: usize,
    /// Dispatcher shards: threads that each take batches from the one
    /// shared queue. `0` is treated as 1.
    pub shards: usize,
    /// `retry_after_ms` hint attached to `/v2` shed (429) responses.
    pub retry_after_ms: u64,
    /// Most concurrent client connections; further accepts are dropped.
    pub max_connections: usize,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    /// Defaults: the [`BatchPolicy`] default, a 64 MiB input-hop cache,
    /// up to 4 shards, 50 ms retry hint, 8192 connections, 16 MiB bodies.
    fn default() -> Self {
        ServeConfig {
            policy: BatchPolicy::default(),
            cache_budget_bytes: 64 << 20,
            shards: std::thread::available_parallelism().map_or(1, |p| p.get().min(4)),
            retry_after_ms: 50,
            max_connections: 8192,
            max_body_bytes: crate::http::MAX_BODY_BYTES,
        }
    }
}

/// Typed constructor for the inference server.
///
/// ```no_run
/// # use photonn_serve::{ModelRegistry, ServerBuilder};
/// # fn demo(registry: ModelRegistry) -> std::io::Result<()> {
/// let server = ServerBuilder::new(registry)
///     .shards(4)
///     .bind("127.0.0.1:8080")?;
/// # drop(server); Ok(())
/// # }
/// ```
pub struct ServerBuilder {
    registry: ModelRegistry,
    config: ServeConfig,
}

impl ServerBuilder {
    /// A builder over `registry` with [`ServeConfig::default`] settings.
    pub fn new(registry: ModelRegistry) -> ServerBuilder {
        ServerBuilder {
            registry,
            config: ServeConfig::default(),
        }
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: ServeConfig) -> ServerBuilder {
        self.config = config;
        self
    }

    /// Sets the dispatcher coalescing policy.
    pub fn policy(mut self, policy: BatchPolicy) -> ServerBuilder {
        self.config.policy = policy;
        self
    }

    /// Sets the number of dispatcher shards (threads over the one queue).
    pub fn shards(mut self, shards: usize) -> ServerBuilder {
        self.config.shards = shards;
        self
    }

    /// Sets the input-hop cache budget (`0` disables the cache).
    pub fn cache_budget_bytes(mut self, bytes: usize) -> ServerBuilder {
        self.config.cache_budget_bytes = bytes;
        self
    }

    /// Sets the `retry_after_ms` hint on `/v2` shed responses.
    pub fn retry_after_ms(mut self, ms: u64) -> ServerBuilder {
        self.config.retry_after_ms = ms;
        self
    }

    /// Sets the concurrent-connection ceiling.
    pub fn max_connections(mut self, connections: usize) -> ServerBuilder {
        self.config.max_connections = connections;
        self
    }

    /// Sets the largest accepted request body.
    pub fn max_body_bytes(mut self, bytes: usize) -> ServerBuilder {
        self.config.max_body_bytes = bytes;
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// event loop.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding or poller creation.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty or the policy is degenerate.
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut config = self.config;
        config.shards = config.shards.max(1);
        let metrics = Arc::new(Metrics::new());
        let cache = if config.cache_budget_bytes > 0 {
            Some(FirstHopCache::new(config.cache_budget_bytes))
        } else {
            None
        };
        let pool = ShardPool::new(
            Arc::new(self.registry),
            config.policy,
            config.shards,
            cache,
            Arc::clone(&metrics),
        );
        let core = Arc::new(Core {
            pool,
            metrics,
            shutting: AtomicBool::new(false),
            config,
        });
        let waker = Waker::new()?;
        let wake = waker.handle()?;
        let sink = CompletionSink::new(waker.handle()?);
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;
        let event_loop = EventLoop {
            core: Arc::clone(&core),
            listener,
            poller,
            waker,
            sink,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            pending: 0,
            shutdown_seen: None,
            accept_paused: None,
        };
        let thread = std::thread::Builder::new()
            .name("photonn-eventloop".into())
            .spawn(move || event_loop.run())
            .expect("spawn event loop");
        Ok(ServerHandle {
            addr,
            core,
            wake,
            event_loop: Some(thread),
        })
    }
}

struct Core {
    pool: ShardPool,
    metrics: Arc<Metrics>,
    shutting: AtomicBool,
    config: ServeConfig,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<Core>,
    wake: WakeHandle,
    event_loop: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// Graceful shutdown: stop accepting, drain the dispatcher pool
    /// (queued requests are still answered), flush every connection, join
    /// every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.core.shutting.swap(true, Ordering::SeqCst) {
            return;
        }
        // Draining the pool first guarantees every pending slot's
        // completion is on the sink before the loop starts closing.
        self.core.pool.shutdown();
        self.wake.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// -------------------------------------------------- connection machine

/// Which API dialect renders a pending slot's response.
enum Api {
    V1,
    V2,
}

/// A submitted inference request awaiting its completion.
struct Pending {
    api: Api,
    model: String,
    head: ReadoutHead,
    started: Instant,
    close: bool,
}

/// A fully-formed response awaiting serialization.
struct Response {
    status: u16,
    body: String,
    close: bool,
}

enum SlotState {
    Pending(Pending),
    Ready(Response),
}

/// One response slot; slots serialize strictly in id order per
/// connection, which is what keeps pipelined responses in request order.
struct Slot {
    id: usize,
    state: SlotState,
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    slots: VecDeque<Slot>,
    next_slot: usize,
    interest: Interest,
    close_after_flush: bool,
    /// Peer hung up (or a protocol error occurred): stop reading, flush
    /// what is owed, close.
    read_closed: bool,
}

impl Conn {
    fn pending_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Pending(_)))
            .count()
    }
}

// ----------------------------------------------------------- the loop

struct EventLoop {
    core: Arc<Core>,
    listener: TcpListener,
    poller: Poller,
    waker: Waker,
    sink: Arc<CompletionSink>,
    conns: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    active: usize,
    pending: usize,
    shutdown_seen: Option<Instant>,
    /// When `Some`, the listener is deregistered after a persistent
    /// `accept` failure; holds the pause start for the re-arm backoff.
    accept_paused: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let shutting = self.core.shutting.load(Ordering::SeqCst);
            if shutting && self.shutdown_seen.is_none() {
                self.shutdown_seen = Some(Instant::now());
            }
            self.maybe_resume_accept();
            let timeout = if shutting {
                SHUTDOWN_POLL
            } else if self.accept_paused.is_some() {
                // Wake in time to re-arm the listener even when every
                // live connection is quiet.
                POLL_TIMEOUT.min(ACCEPT_RETRY)
            } else {
                POLL_TIMEOUT
            };
            {
                let _span = photonn_trace::span("serve.poll_wait");
                if self.poller.wait(&mut events, Some(timeout)).is_err() {
                    // An unrecoverable poller failure: nothing left to
                    // drive; drop every connection.
                    return;
                }
            }
            let mut woke = false;
            for event in events.drain(..) {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(shutting),
                    TOKEN_WAKER => woke = true,
                    token => self.conn_ready(token, event.readable, event.writable),
                }
            }
            if woke {
                self.waker.drain();
            }
            // Completions are drained every iteration (not only on a
            // wake): a wake posted while the loop was mid-iteration
            // coalesces into the level-triggered waker byte, and draining
            // here keeps the common case one lock acquisition.
            for completion in self.sink.drain() {
                self.apply_completion(completion);
            }
            if shutting && self.drain_for_shutdown() {
                return;
            }
        }
    }

    // ---- accept

    fn accept_ready(&mut self, shutting: bool) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue; // transient: the next accept may succeed
                }
                Err(_) => {
                    // Persistent failure (typically EMFILE/ENFILE when fd
                    // pressure outruns max_connections). Retrying here
                    // would spin this thread forever and starve every
                    // live connection; pause the listener instead and let
                    // run() re-arm it once closes have freed fds.
                    self.pause_accept();
                    return;
                }
            };
            if shutting || self.active >= self.core.config.max_connections {
                // Beyond capacity (or draining): shed at the accept
                // boundary; the client sees a clean close.
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.conns.push(None);
                    self.generations.push(0);
                    self.conns.len() - 1
                }
            };
            let token = conn_token(slot, self.generations[slot]);
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                slots: VecDeque::new(),
                next_slot: 0,
                interest: Interest::READ,
                close_after_flush: false,
                read_closed: false,
            });
            self.active += 1;
            self.core.metrics.set_connections(self.active);
        }
    }

    /// Takes the listener out of the poll set after a persistent accept
    /// failure, so the level-triggered readiness stops re-firing into a
    /// failing `accept` every iteration.
    fn pause_accept(&mut self) {
        if self.accept_paused.is_none() {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.accept_paused = Some(Instant::now());
        }
    }

    /// Re-arms a paused listener once the backoff has elapsed; on a
    /// failed re-registration the backoff restarts.
    fn maybe_resume_accept(&mut self) {
        let Some(since) = self.accept_paused else {
            return;
        };
        if since.elapsed() < ACCEPT_RETRY {
            return;
        }
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_ok()
        {
            self.accept_paused = None;
        } else {
            self.accept_paused = Some(Instant::now());
        }
    }

    // ---- per-connection events

    fn decode(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xFFFF_FFFF) as usize - 2;
        if slot >= self.conns.len() || self.generations[slot] != (token >> 32) as u32 {
            return None; // stale: the connection was closed (and possibly recycled)
        }
        self.conns[slot].as_ref()?;
        Some(slot)
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(slot) = self.decode(token) else {
            return;
        };
        let mut conn = self.conns[slot].take().expect("decoded live conn");
        let mut dead = false;
        if readable && !conn.read_closed {
            dead = self.read_and_parse(&mut conn, slot);
        }
        if !dead && (writable || !conn.write_buf.is_empty() || !conn.slots.is_empty()) {
            dead = self.flush(&mut conn);
        }
        self.finish_event(slot, conn, dead);
    }

    /// Re-registers interest or closes, after any event or completion.
    fn finish_event(&mut self, slot: usize, mut conn: Conn, dead: bool) {
        let flushed = conn.write_buf.len() == conn.written;
        let drained = conn.slots.is_empty() && flushed;
        let shutting = self.core.shutting.load(Ordering::SeqCst);
        if dead
            || (conn.close_after_flush && drained)
            || (conn.read_closed && drained)
            || (shutting && drained)
        {
            self.close(slot, conn);
            return;
        }
        let want = Interest {
            readable: !conn.read_closed && !conn.close_after_flush,
            writable: !flushed,
        };
        if want != conn.interest {
            let token = conn_token(slot, self.generations[slot]);
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close(slot, conn);
                return;
            }
            conn.interest = want;
        }
        self.conns[slot] = Some(conn);
    }

    fn close(&mut self, slot: usize, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.pending -= conn.pending_count();
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.active -= 1;
        self.core.metrics.set_connections(self.active);
        self.free.push(slot);
        drop(conn); // closes the socket
    }

    /// Reads whatever the socket has, then lifts complete requests out of
    /// the buffer. Returns `true` when the connection died.
    fn read_and_parse(&mut self, conn: &mut Conn, slot: usize) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        let token = conn_token(slot, self.generations[slot]);
        while !conn.close_after_flush {
            let parsed = parse_available(&conn.read_buf, self.core.config.max_body_bytes);
            match parsed {
                Ok(ParseOutcome::Partial) => break,
                Ok(ParseOutcome::Ready { request, consumed }) => {
                    let close = request.wants_close();
                    let slot_id = conn.next_slot;
                    let state =
                        handle_request(&self.core, &self.sink, token, slot_id, &request, close);
                    if matches!(state, SlotState::Pending(_)) {
                        self.pending += 1;
                    }
                    if let SlotState::Ready(r) = &state {
                        if r.close {
                            conn.close_after_flush = true;
                        }
                    } else if close {
                        conn.close_after_flush = true;
                    }
                    conn.slots.push_back(Slot { id: slot_id, state });
                    conn.next_slot += 1;
                    conn.read_buf.drain(..consumed);
                }
                Err(violation) => {
                    let response = protocol_error_response(&violation);
                    conn.slots.push_back(Slot {
                        id: conn.next_slot,
                        state: SlotState::Ready(response),
                    });
                    conn.next_slot += 1;
                    conn.close_after_flush = true;
                    conn.read_closed = true;
                    conn.read_buf.clear();
                }
            }
        }
        false
    }

    // ---- completions

    fn apply_completion(&mut self, completion: Completion) {
        let Some(slot) = self.decode(completion.conn) else {
            return; // client already gone
        };
        let mut conn = self.conns[slot].take().expect("decoded live conn");
        if let Some(entry) = conn.slots.iter_mut().find(|s| s.id == completion.slot) {
            if let SlotState::Pending(pending) = &entry.state {
                entry.state = SlotState::Ready(render(pending, completion.results));
                self.pending -= 1;
            }
        }
        let dead = self.flush(&mut conn);
        self.finish_event(slot, conn, dead);
    }

    // ---- shutdown

    /// Sweeps connections while draining; `true` once the loop may exit.
    fn drain_for_shutdown(&mut self) -> bool {
        let grace_expired = self
            .shutdown_seen
            .is_some_and(|at| at.elapsed() > SHUTDOWN_GRACE);
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let dead = self.flush(&mut conn);
            if dead || grace_expired {
                self.close(slot, conn);
            } else {
                self.finish_event(slot, conn, false);
            }
        }
        self.active == 0
    }

    /// Serializes every leading ready slot into the write buffer, then
    /// pushes bytes to the socket. Returns `true` when the connection
    /// died.
    fn flush(&mut self, conn: &mut Conn) -> bool {
        while let Some(front) = conn.slots.front() {
            if !matches!(front.state, SlotState::Ready(_)) {
                break;
            }
            let slot = conn.slots.pop_front().expect("checked front");
            let SlotState::Ready(response) = slot.state else {
                unreachable!("checked ready")
            };
            self.core.metrics.record_status(response.status);
            let _span = photonn_trace::span("serve.write");
            write_response(
                &mut conn.write_buf,
                response.status,
                "application/json",
                &response.body,
                response.close,
            )
            .expect("write to Vec cannot fail");
            if response.close {
                conn.close_after_flush = true;
                // Later pipelined slots are behind a close: drop them
                // (any pending among them will resolve into a stale
                // token), keeping the loop-wide pending count honest.
                self.pending -= conn.pending_count();
                conn.slots.clear();
            }
        }
        while conn.written < conn.write_buf.len() {
            let _span = photonn_trace::span("serve.write");
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => return true,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        if conn.written == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.written = 0;
        }
        false
    }
}

// ------------------------------------------------------------- routing

fn ready(status: u16, body: String, close: bool) -> SlotState {
    SlotState::Ready(Response {
        status,
        body,
        close,
    })
}

fn error_body(message: &str) -> String {
    Json::object(vec![("error".into(), Json::Str(message.into()))]).to_string()
}

/// The `/v2` structured error document: `{"code", "message",
/// "retry_after_ms"}` with `retry_after_ms` null for non-retryable
/// failures.
fn v2_error_body(code: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    Json::object(vec![
        ("code".into(), Json::Str(code.into())),
        ("message".into(), Json::Str(message.into())),
        (
            "retry_after_ms".into(),
            retry_after_ms.map_or(Json::Null, |ms| Json::Num(ms as f64)),
        ),
    ])
    .to_string()
}

/// Answers a protocol violation in the dialect of the path (when known)
/// and closes the connection.
fn protocol_error_response(violation: &ProtocolError) -> Response {
    let v2 = violation
        .path
        .as_deref()
        .is_some_and(|p| p.starts_with("/v2"));
    if v2 {
        let code = if violation.status == 413 {
            "payload_too_large"
        } else {
            "bad_request"
        };
        Response {
            status: violation.status,
            body: v2_error_body(code, violation.message, None),
            close: true,
        }
    } else {
        // The legacy surface answered every protocol violation 400 with
        // the plain error body — pinned behavior.
        Response {
            status: 400,
            body: error_body(violation.message),
            close: true,
        }
    }
}

fn handle_request(
    core: &Arc<Core>,
    sink: &Arc<CompletionSink>,
    token: u64,
    slot: usize,
    request: &RequestRef<'_>,
    close: bool,
) -> SlotState {
    match (request.method, request.path) {
        ("GET", "/healthz") => ready(
            200,
            Json::object(vec![("status".into(), Json::Str("ok".into()))]).to_string(),
            close,
        ),
        ("GET", "/models") => ready(200, models_body(core), close),
        ("GET", "/v2/models") => ready(200, v2_models_body(core), close),
        ("GET", "/metrics") => ready(200, core.metrics.snapshot().to_json().to_string(), close),
        ("POST", "/v1/logits") => v1_infer(core, sink, token, slot, request.body, close),
        ("POST", "/v2/logits") => v2_infer(core, sink, token, slot, request.body, close),
        ("GET" | "POST", path) if path.starts_with("/v2") => ready(
            404,
            v2_error_body("not_found", "no such endpoint", None),
            close,
        ),
        ("GET" | "POST", _) => ready(404, error_body("no such endpoint"), close),
        (_, path) if path.starts_with("/v2") => ready(
            405,
            v2_error_body("method_not_allowed", "method not allowed", None),
            close,
        ),
        _ => ready(405, error_body("method not allowed"), close),
    }
}

fn models_body(core: &Arc<Core>) -> String {
    let registry = core.pool.registry();
    let models = registry
        .models()
        .iter()
        .map(|m| {
            Json::object(vec![
                ("name".into(), Json::Str(m.name().into())),
                ("kind".into(), Json::Str(m.kind().to_string())),
                ("grid".into(), Json::Num(m.grid() as f64)),
                ("classes".into(), Json::Num(m.num_classes() as f64)),
            ])
        })
        .collect();
    let default = registry
        .default_model()
        .map_or(Json::Null, |m| Json::Str(m.name().into()));
    Json::object(vec![
        ("models".into(), Json::Arr(models)),
        ("default".into(), default),
    ])
    .to_string()
}

/// `/v2/models`: the `/v1` listing plus the selectable readout heads.
fn v2_models_body(core: &Arc<Core>) -> String {
    let registry = core.pool.registry();
    let models = registry
        .models()
        .iter()
        .map(|m| {
            Json::object(vec![
                ("name".into(), Json::Str(m.name().into())),
                ("kind".into(), Json::Str(m.kind().to_string())),
                ("grid".into(), Json::Num(m.grid() as f64)),
                ("classes".into(), Json::Num(m.num_classes() as f64)),
            ])
        })
        .collect();
    let default = registry
        .default_model()
        .map_or(Json::Null, |m| Json::Str(m.name().into()));
    let heads = ReadoutHead::all()
        .iter()
        .map(|h| Json::Str(h.name().into()))
        .collect();
    Json::object(vec![
        ("models".into(), Json::Arr(models)),
        ("default".into(), default),
        ("heads".into(), Json::Arr(heads)),
    ])
    .to_string()
}

/// `POST /v1/logits` — body `{"model": <optional name>, "image": <n*n
/// numbers, flat or as n rows>}`; answers the sample's logits and argmax
/// class. Byte-identical to the pre-redesign server.
fn v1_infer(
    core: &Arc<Core>,
    sink: &Arc<CompletionSink>,
    token: u64,
    slot: usize,
    body: &[u8],
    close: bool,
) -> SlotState {
    let started = Instant::now();
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return ready(400, error_body("body is not UTF-8"), close),
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return ready(400, error_body(&e.to_string()), close),
    };
    let model_name = match doc.get("model") {
        None | Some(Json::Null) => None,
        Some(Json::Str(name)) => Some(name.as_str()),
        Some(_) => return ready(400, error_body("'model' must be a string"), close),
    };
    let image = match parse_image(&doc) {
        Ok(image) => image,
        Err(message) => return ready(400, error_body(&message), close),
    };
    let model = match core.pool.resolve(model_name) {
        Ok(model) => Arc::clone(model),
        Err(e) => return ready(404, error_body(&e.to_string()), close),
    };
    let handle = CompletionHandle::batch(sink, token, slot, 1)
        .pop()
        .expect("one handle");
    match core.pool.submit(&model, ReadoutHead::Sum, image, handle) {
        // Counted only on acceptance, as MetricsSnapshot documents;
        // refusals are visible in the 4xx/429 counters.
        Ok(()) => {
            core.metrics.record_request();
            SlotState::Pending(Pending {
                api: Api::V1,
                model: model.name().to_string(),
                head: ReadoutHead::Sum,
                started,
                close,
            })
        }
        Err(SubmitError::QueueFull) => {
            core.metrics.record_shed();
            ready(429, error_body("queue full"), close)
        }
        Err(SubmitError::ShuttingDown) => ready(503, error_body("shutting down"), close),
        Err(e @ SubmitError::UnknownModel(_)) => ready(404, error_body(&e.to_string()), close),
        Err(e @ SubmitError::ShapeMismatch { .. }) => ready(400, error_body(&e.to_string()), close),
        // One image always fits: `queue_capacity >= 1` is validated.
        Err(e @ SubmitError::BatchTooLarge { .. }) => ready(413, error_body(&e.to_string()), close),
    }
}

/// `POST /v2/logits` — body `{"model": <optional name>, "head":
/// <optional "sum"|"differential">, "inputs": [<image>, ...]}`; answers
/// per-input results through one coalesced submission. Errors are
/// structured (`{"code", "message", "retry_after_ms"}`).
fn v2_infer(
    core: &Arc<Core>,
    sink: &Arc<CompletionSink>,
    token: u64,
    slot: usize,
    body: &[u8],
    close: bool,
) -> SlotState {
    let started = Instant::now();
    let bad = |message: &str| ready(400, v2_error_body("bad_request", message, None), close);
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return bad("body is not UTF-8"),
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return bad(&e.to_string()),
    };
    let model_name = match doc.get("model") {
        None | Some(Json::Null) => None,
        Some(Json::Str(name)) => Some(name.as_str()),
        Some(_) => return bad("'model' must be a string"),
    };
    let head = match doc.get("head") {
        None | Some(Json::Null) => ReadoutHead::default(),
        Some(Json::Str(name)) => match ReadoutHead::parse(name) {
            Some(head) => head,
            None => {
                return ready(
                    400,
                    v2_error_body("unknown_head", &format!("unknown head '{name}'"), None),
                    close,
                )
            }
        },
        Some(_) => return bad("'head' must be a string"),
    };
    let inputs = match doc.get("inputs").and_then(Json::as_array) {
        Some(inputs) => inputs,
        None => return bad("'inputs' must be an array"),
    };
    if inputs.is_empty() {
        return bad("'inputs' is empty");
    }
    let mut images = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        match image_from_json(input) {
            Ok(image) => images.push(image),
            Err(message) => return bad(&format!("inputs[{i}]: {message}")),
        }
    }
    let model = match core.pool.resolve(model_name) {
        Ok(model) => Arc::clone(model),
        Err(e) => {
            return ready(
                404,
                v2_error_body("unknown_model", &e.to_string(), None),
                close,
            )
        }
    };
    let replies = CompletionHandle::batch(sink, token, slot, images.len());
    match core.pool.submit_batch(&model, head, images, replies) {
        Ok(()) => {
            core.metrics.record_request();
            SlotState::Pending(Pending {
                api: Api::V2,
                model: model.name().to_string(),
                head,
                started,
                close,
            })
        }
        Err(SubmitError::QueueFull) => {
            core.metrics.record_shed();
            ready(
                429,
                v2_error_body("shed", "queue full", Some(core.config.retry_after_ms)),
                close,
            )
        }
        // No retry can admit it, so it is not a shed.
        Err(e @ SubmitError::BatchTooLarge { .. }) => ready(
            413,
            v2_error_body("payload_too_large", &e.to_string(), None),
            close,
        ),
        Err(SubmitError::ShuttingDown) => ready(
            503,
            v2_error_body("shutting_down", "server is shutting down", None),
            close,
        ),
        Err(e @ SubmitError::UnknownModel(_)) => ready(
            404,
            v2_error_body("unknown_model", &e.to_string(), None),
            close,
        ),
        Err(e @ SubmitError::ShapeMismatch { .. }) => bad(&e.to_string()),
    }
}

/// Renders a pending slot's response from its completion results.
fn render(pending: &Pending, mut results: Vec<Vec<f64>>) -> Response {
    let latency = Json::Num(pending.started.elapsed().as_micros() as f64);
    let body = match pending.api {
        Api::V1 => {
            let logits = results.pop().expect("v1 has one sample");
            Json::object(vec![
                ("model".into(), Json::Str(pending.model.clone())),
                ("class".into(), Json::Num(argmax(&logits) as f64)),
                ("logits".into(), Json::numbers(&logits)),
                ("latency_us".into(), latency),
            ])
        }
        Api::V2 => {
            let entries = results
                .iter()
                .map(|logits| {
                    Json::object(vec![
                        ("class".into(), Json::Num(argmax(logits) as f64)),
                        ("logits".into(), Json::numbers(logits)),
                    ])
                })
                .collect();
            Json::object(vec![
                ("model".into(), Json::Str(pending.model.clone())),
                ("head".into(), Json::Str(pending.head.name().into())),
                ("results".into(), Json::Arr(entries)),
                ("latency_us".into(), latency),
            ])
        }
    };
    Response {
        status: 200,
        body: body.to_string(),
        close: pending.close,
    }
}

/// Accepts a v1 document's `"image": [v; n*n]` (flat, row-major) or
/// `"image": [[v; n]; n]`.
fn parse_image(doc: &Json) -> Result<Grid, String> {
    let image = doc.get("image").ok_or("'image' must be an array")?;
    image_from_json_with_field(image, "image")
}

/// Accepts one image value — flat `[v; n*n]` or nested `[[v; n]; n]` —
/// phrased with v2's field naming.
fn image_from_json(value: &Json) -> Result<Grid, String> {
    image_from_json_with_field(value, "input")
}

fn image_from_json_with_field(value: &Json, field: &str) -> Result<Grid, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("'{field}' must be an array"))?;
    if items.is_empty() {
        return Err(format!("'{field}' is empty"));
    }
    let (values, side) = if items.iter().all(|v| matches!(v, Json::Num(_))) {
        let values: Vec<f64> = items.iter().map(|v| v.as_f64().expect("checked")).collect();
        let side = (values.len() as f64).sqrt().round() as usize;
        if side * side != values.len() {
            return Err(format!(
                "'{field}' length {} is not a perfect square",
                values.len()
            ));
        }
        (values, side)
    } else {
        // Nested rows: every element must be an equal-length number row,
        // and the declared row structure must itself be square — a DONN
        // grid is n×n, so silently reshaping e.g. 64×16 would scramble
        // the pixel layout while passing the later shape check.
        let rows: Vec<&[Json]> = items
            .iter()
            .map(|row| {
                row.as_array()
                    .ok_or_else(|| format!("'{field}' mixes rows and scalars"))
            })
            .collect::<Result<_, _>>()?;
        let width = rows[0].len();
        if rows.len() != width {
            return Err(format!(
                "'{field}' rows declare a {}x{width} shape; a square grid is required",
                rows.len()
            ));
        }
        let mut values = Vec::with_capacity(rows.len() * width);
        for row in &rows {
            if row.len() != width {
                return Err(format!("'{field}' rows have unequal lengths"));
            }
            for v in *row {
                values.push(
                    v.as_f64()
                        .ok_or_else(|| format!("'{field}' contains a non-number"))?,
                );
            }
        }
        (values, width)
    };
    if values.iter().any(|v| !v.is_finite()) {
        return Err(format!("'{field}' contains a non-finite value"));
    }
    Ok(Grid::from_vec(side, side, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_image_accepts_flat_and_nested() {
        let flat = Json::parse(r#"{"image": [0, 1, 2, 3]}"#).unwrap();
        let nested = Json::parse(r#"{"image": [[0, 1], [2, 3]]}"#).unwrap();
        let a = parse_image(&flat).unwrap();
        let b = parse_image(&nested).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(a[(1, 0)], 2.0);
    }

    #[test]
    fn parse_image_rejects_bad_payloads() {
        for body in [
            r#"{}"#,
            r#"{"image": "x"}"#,
            r#"{"image": []}"#,
            r#"{"image": [0, 1, 2]}"#,
            r#"{"image": [[0, 1], [2]]}"#,
            r#"{"image": [[0, 1], 2]}"#,
            r#"{"image": [0, true, 2, 3]}"#,
            // 1x4 nested: right element count, wrong declared shape.
            r#"{"image": [[0, 1, 2, 3]]}"#,
            // 4x1 nested: transposed non-square declaration.
            r#"{"image": [[0], [1], [2], [3]]}"#,
        ] {
            let doc = Json::parse(body).unwrap();
            assert!(parse_image(&doc).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn v1_error_strings_unchanged_by_shared_image_parser() {
        // These exact strings are pinned by the /v1 byte-compat fixtures;
        // the shared parser must keep producing them for the v1 field.
        let doc = Json::parse(r#"{"model": "ideal"}"#).unwrap();
        assert_eq!(parse_image(&doc).unwrap_err(), "'image' must be an array");
        let doc = Json::parse(r#"{"image": []}"#).unwrap();
        assert_eq!(parse_image(&doc).unwrap_err(), "'image' is empty");
        let doc = Json::parse(r#"{"image": [0, 1, 2]}"#).unwrap();
        assert_eq!(
            parse_image(&doc).unwrap_err(),
            "'image' length 3 is not a perfect square"
        );
        let doc = Json::parse(r#"{"image": [[0, 1], 2]}"#).unwrap();
        assert_eq!(
            parse_image(&doc).unwrap_err(),
            "'image' mixes rows and scalars"
        );
    }

    #[test]
    fn v2_error_body_shape() {
        let body = v2_error_body("shed", "queue full", Some(50));
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("shed"));
        assert_eq!(
            doc.get("message").and_then(Json::as_str),
            Some("queue full")
        );
        assert_eq!(doc.get("retry_after_ms").and_then(Json::as_usize), Some(50));
        let body = v2_error_body("bad_request", "nope", None);
        let doc = Json::parse(&body).unwrap();
        assert!(matches!(doc.get("retry_after_ms"), Some(Json::Null)));
    }

    #[test]
    fn builder_accumulates_config() {
        let builder = ServerBuilder::new(ModelRegistry::new())
            .shards(3)
            .retry_after_ms(120)
            .max_connections(64)
            .max_body_bytes(1 << 20)
            .cache_budget_bytes(0)
            .policy(BatchPolicy::unbatched());
        assert_eq!(builder.config.shards, 3);
        assert_eq!(builder.config.retry_after_ms, 120);
        assert_eq!(builder.config.max_connections, 64);
        assert_eq!(builder.config.max_body_bytes, 1 << 20);
        assert_eq!(builder.config.cache_budget_bytes, 0);
        assert_eq!(builder.config.policy, BatchPolicy::unbatched());
    }

    #[test]
    fn conn_tokens_embed_generation() {
        let a = conn_token(5, 0);
        let b = conn_token(5, 1);
        assert_ne!(a, b);
        assert_eq!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
        assert!(conn_token(0, 0) >= 2, "reserved tokens must not collide");
    }
}
