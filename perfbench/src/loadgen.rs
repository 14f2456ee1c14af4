//! The load generator: one thread driving two keep-alive, pipelined
//! connections.
//!
//! * Open loop: request `k` is due at `start + k / rate` whether or not
//!   earlier ones were answered (independent users). Latency is timed
//!   from the due time, so a stall also charges the requests it delayed,
//!   and the generator's own lateness is recorded.
//! * Closed loop: a fixed number of requests in flight per connection;
//!   each completion sends the next (callers that wait for replies).
//!
//! Sockets are nonblocking and polled; when a pass makes no progress the
//! thread sleeps until the next due time, at most [`IDLE_SLEEP`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::httpframe::parse_response;

/// Longest idle sleep between polls.
const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// How long a phase waits for its last responses before counting them
/// as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// An open-loop arrival schedule: request `k` is due at `start + k·period`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    period: Duration,
    next: u64,
}

impl Schedule {
    /// A schedule of `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
            next: 0,
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }

    /// The requests due by `now` and not yet taken, in order.
    pub fn take_due(&mut self, now: Instant) -> std::ops::Range<u64> {
        let first = self.next;
        while self.due(self.next) <= now {
            self.next += 1;
        }
        first..self.next
    }

    /// Due time of the next request not yet taken.
    pub fn next_due(&self) -> Instant {
        self.due(self.next)
    }
}

/// Milliseconds from `from` to `to` (zero if `to` is earlier).
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// How a phase offers load.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Fixed arrival rate in requests per second.
    Open { rate: f64 },
    /// Requests kept in flight per connection.
    Closed { depth: usize },
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Latency of every request answered 2xx, ms (open loop: from due
    /// time).
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with a status other than 2xx (a 429 is the
    /// server refusing load).
    pub refused: u64,
    /// Requests lost with a broken connection or never answered within
    /// the drain timeout.
    pub lost: u64,
    /// 2xx replies before issuing stopped.
    pub completed_in_window: u64,
    /// Issuing window, seconds.
    pub window_s: f64,
    /// Open loop: how late the generator sent each request, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests sent but unanswered when issuing stopped.
    pub backlog: usize,
    /// 2xx response bodies of the requests `sample` selected, by id.
    pub sampled: Vec<(u64, Vec<u8>)>,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// (request id, the instant its latency is timed from), in send order.
    inflight: VecDeque<(u64, Instant)>,
    broken: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(64 * 1024),
            wbuf: Vec::with_capacity(64 * 1024),
            inflight: VecDeque::new(),
            broken: false,
        })
    }

    /// Writes what the socket takes; `true` if any bytes moved.
    fn flush(&mut self) -> io::Result<bool> {
        let mut moved = false;
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(moved)
    }

    /// Reads what has arrived; `true` if any bytes did.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut moved = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Two keep-alive connections to the server under test.
pub struct Generator {
    conns: Vec<Conn>,
    next_id: u64,
}

impl Generator {
    /// Opens both connections.
    pub fn connect(addr: SocketAddr) -> io::Result<Generator> {
        Ok(Generator {
            conns: vec![Conn::open(addr)?, Conn::open(addr)?],
            next_id: 0,
        })
    }

    /// Runs one phase for `window`. `request(id)` renders request `id`'s
    /// bytes; `sample(id)` selects the requests whose response bodies are
    /// kept for checking. Request ids continue across phases.
    pub fn run(
        &mut self,
        mode: Mode,
        window: Duration,
        mut request: impl FnMut(u64) -> Vec<u8>,
        sample: impl Fn(u64) -> bool,
    ) -> PhaseResult {
        let mut out = PhaseResult::default();
        let start = Instant::now();
        let end = start + window;
        let first_id = self.next_id;
        let mut schedule = match mode {
            Mode::Open { rate } => Some(Schedule::new(start, rate)),
            Mode::Closed { .. } => None,
        };
        let mut issuing = true;
        loop {
            let now = Instant::now();
            if issuing && now >= end {
                issuing = false;
                out.window_s = ms_between(start, now) / 1e3;
                out.backlog = self.conns.iter().map(|c| c.inflight.len()).sum();
            }
            if issuing {
                match (&mut schedule, mode) {
                    (Some(s), _) => {
                        for k in s.take_due(now) {
                            let due = s.due(k);
                            out.lateness_ms.push(ms_between(due, now));
                            let conn = &mut self.conns[(k % 2) as usize];
                            if !conn.broken {
                                conn.wbuf.extend_from_slice(&request(first_id + k));
                                conn.inflight.push_back((first_id + k, due));
                            } else {
                                out.lost += 1;
                            }
                            out.sent += 1;
                            self.next_id = first_id + k + 1;
                        }
                    }
                    (None, Mode::Closed { depth }) => {
                        for conn in self.conns.iter_mut().filter(|c| !c.broken) {
                            while conn.inflight.len() < depth {
                                let id = self.next_id;
                                self.next_id += 1;
                                conn.wbuf.extend_from_slice(&request(id));
                                conn.inflight.push_back((id, now));
                                out.sent += 1;
                            }
                        }
                    }
                    (None, Mode::Open { .. }) => unreachable!("open loop has a schedule"),
                }
            }

            let mut progress = false;
            for conn in self.conns.iter_mut().filter(|c| !c.broken) {
                let moved = conn.flush().and_then(|w| Ok(w | conn.fill()?));
                match moved {
                    Ok(m) => progress |= m,
                    Err(e) => {
                        eprintln!("perfbench: connection lost: {e}");
                        out.lost += conn.inflight.len() as u64;
                        conn.inflight.clear();
                        conn.broken = true;
                        continue;
                    }
                }
                let done = Instant::now();
                loop {
                    match parse_response(&conn.rbuf) {
                        Ok(Some(frame)) => {
                            let (id, origin) = conn
                                .inflight
                                .pop_front()
                                .expect("a response answers a request in flight");
                            if (200..300).contains(&frame.status) {
                                out.latencies_ms.push(ms_between(origin, done));
                                if issuing {
                                    out.completed_in_window += 1;
                                }
                                if sample(id) {
                                    out.sampled.push((id, conn.rbuf[frame.body].to_vec()));
                                }
                            } else {
                                out.refused += 1;
                            }
                            conn.rbuf.drain(..frame.consumed);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            eprintln!("perfbench: unframeable response: {e}");
                            out.lost += conn.inflight.len() as u64;
                            conn.inflight.clear();
                            conn.broken = true;
                            break;
                        }
                    }
                }
            }

            let outstanding: usize = self.conns.iter().map(|c| c.inflight.len()).sum();
            if !issuing && outstanding == 0 {
                break;
            }
            if !issuing && now >= end + DRAIN_TIMEOUT {
                out.lost += outstanding as u64;
                for conn in &mut self.conns {
                    conn.inflight.clear();
                    conn.broken = true;
                }
                break;
            }
            if !progress {
                let wake = match &schedule {
                    Some(s) if issuing => s.next_due().min(now + IDLE_SLEEP),
                    _ => now + IDLE_SLEEP,
                };
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_and_lateness() {
        let t0 = Instant::now();
        let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
        let mut s = Schedule::new(t0, 1000.0);
        // At 3.5 ms, requests 0..=3 (due at 0, 1, 2, 3 ms) are due.
        let now = t0 + ms(3.5);
        let due: Vec<u64> = s.take_due(now).collect();
        assert_eq!(due, vec![0, 1, 2, 3]);
        let late: Vec<f64> = due.iter().map(|&k| ms_between(s.due(k), now)).collect();
        for (got, want) in late.iter().zip([3.5, 2.5, 1.5, 0.5]) {
            assert!((got - want).abs() < 1e-6, "{late:?}");
        }
        // Nothing new until the next due time; then exactly one.
        assert!(s.take_due(now).is_empty());
        assert_eq!(s.next_due(), t0 + ms(4.0));
        assert_eq!(s.take_due(t0 + ms(4.0)), 4..5);
        // Latency runs from the due time, not from when it was sent: a
        // request due at 2 ms, sent at 3.5 ms and answered at 10 ms took
        // 8 ms, 1.5 of them the generator's lateness.
        assert!((ms_between(s.due(2), t0 + ms(10.0)) - 8.0).abs() < 1e-6);
        assert_eq!(ms_between(t0 + ms(5.0), t0), 0.0);
    }

    #[test]
    fn a_stalled_generator_catches_up_with_every_missed_request() {
        let t0 = Instant::now();
        let mut s = Schedule::new(t0, 500.0);
        // A 20 ms stall: all ten requests due meanwhile go out at once,
        // the oldest 20 ms late.
        let now = t0 + Duration::from_millis(19);
        let due: Vec<u64> = s.take_due(now).collect();
        assert_eq!(due.len(), 10);
        assert!((ms_between(s.due(0), now) - 19.0).abs() < 1e-6);
    }
}
