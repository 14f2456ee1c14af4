//! A minimal blocking HTTP/1.1 client — just enough to drive the server
//! from examples, integration tests and benchmarks without a second
//! protocol implementation in every caller.
//!
//! Not a general-purpose client: it speaks exactly the dialect the server
//! emits (`Content-Length` bodies, keep-alive by default). Three layers:
//!
//! * [`request`] — one-shot, one fresh connection per call.
//! * [`Connection`] — a raw keep-alive connection.
//! * [`Client`] — typed `/v1` and `/v2` calls over a keep-alive
//!   connection that transparently reconnects when the server closed it
//!   (idle timeout, restart); API-level failures come back as
//!   [`ApiError`] with the `/v2` structured fields populated.

use crate::json::Json;
use photonn_math::Grid;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to a server.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to `addr` with a generous request timeout.
    ///
    /// # Errors
    ///
    /// Returns any socket error.
    pub fn connect(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads the response. `body = None` sends a
    /// bodyless request (GET).
    ///
    /// # Errors
    ///
    /// Returns transport errors and `InvalidData` for malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.send(method, path, body)?;
        read_response(&mut self.reader)
    }

    /// Writes one request without reading the response.
    fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        // Single buffered write (see `http::write_response` on Nagle).
        let request = match body {
            Some(body) => format!(
                "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
            None => format!("{method} {path} HTTP/1.1\r\n\r\n"),
        };
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()
    }

    /// Blocks until the response starts arriving: `Ok(true)` once at
    /// least one byte is buffered, `Ok(false)` on clean EOF before any
    /// byte (the server closed without answering).
    fn response_started(&mut self) -> io::Result<bool> {
        Ok(!self.reader.fill_buf()?.is_empty())
    }
}

/// One-shot request over a fresh connection.
///
/// # Errors
///
/// Returns transport errors and `InvalidData` for malformed responses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    Connection::connect(addr)?.request(method, path, body)
}

// ------------------------------------------------------- typed client

/// An API-level failure: the server answered, but with an error status.
/// `/v2` responses populate `code` and `retry_after_ms` from the
/// structured error document; `/v1` responses carry code `"error"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status.
    pub status: u16,
    /// `/v2` machine-readable code (`"shed"`, `"unknown_model"`, ...).
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// Retry hint on shed responses.
    pub retry_after_ms: Option<u64>,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP {} {}: {}", self.status, self.code, self.message)
    }
}

/// Transport failure or API-level error from a typed call.
#[derive(Debug)]
pub enum ClientError {
    /// The request never completed (connect, write, read, malformed
    /// response).
    Io(io::Error),
    /// The server answered with an error status.
    Api(ApiError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Api(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A `/v1/logits` answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Inference {
    /// Registered name of the model that ran.
    pub model: String,
    /// Argmax class.
    pub class: usize,
    /// Per-class detector sums.
    pub logits: Vec<f64>,
    /// Server-side latency in microseconds.
    pub latency_us: f64,
}

/// One sample's answer inside a `/v2/logits` batch.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassLogits {
    /// Argmax class.
    pub class: usize,
    /// Per-class readout values.
    pub logits: Vec<f64>,
}

/// A `/v2/logits` answer.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchInference {
    /// Registered name of the model that ran.
    pub model: String,
    /// Readout head that produced the logits.
    pub head: String,
    /// One entry per input, in input order.
    pub results: Vec<ClassLogits>,
    /// Server-side latency in microseconds.
    pub latency_us: f64,
}

/// A typed client over a keep-alive connection. The connection is opened
/// lazily and reopened transparently when the server has closed it; a
/// request is retried at most once, and only when a *reused* connection
/// fails before delivering any response byte (write error, clean EOF, or
/// reset) — the signature of a server idle-close or restart between
/// requests. A failure after the first response byte, or a read timeout,
/// is surfaced as-is, so a request that is slow or mid-execution
/// server-side is never replayed. (Against a server that crashes after
/// reading a request but before answering, the replay is still possible;
/// this API is stateless, so such a replay is harmless.)
pub struct Client {
    addr: SocketAddr,
    conn: Option<Connection>,
}

impl Client {
    /// A client for the server at `addr`. Does not connect yet.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Sends over the kept-alive connection, reconnecting once when the
    /// previous connection turns out to be dead (see the type docs for
    /// exactly when a retry happens).
    ///
    /// # Errors
    ///
    /// Returns any transport error from both attempts.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let had_conn = self.conn.is_some();
        if self.conn.is_none() {
            self.conn = Some(Connection::connect(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("just ensured");
        // A reused connection the server idle-closed or restarted under
        // surfaces as a write failure, a clean EOF, or a reset before the
        // first response byte — all meaning this request was never
        // answered, so one replay on a fresh connection is safe. Once
        // response bytes have started flowing (or on a timeout, where the
        // request may still be executing), any failure is final.
        let stale = match conn
            .send(method, path, body)
            .and_then(|()| conn.response_started())
        {
            Ok(true) => {
                let reply = read_response(&mut conn.reader);
                if reply.is_err() {
                    self.conn = None;
                }
                return reply;
            }
            Ok(false) if had_conn => true,
            Ok(false) => {
                self.conn = None;
                return Err(bad("empty response"));
            }
            Err(e)
                if had_conn
                    && !matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                true
            }
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        debug_assert!(stale);
        self.conn = None;
        let mut fresh = Connection::connect(self.addr)?;
        let reply = fresh.request(method, path, body)?;
        self.conn = Some(fresh);
        Ok(reply)
    }

    /// `POST /v1/logits` for one image; `model = None` uses the server
    /// default.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure, [`ClientError::Api`] on
    /// an error status.
    pub fn logits_v1(
        &mut self,
        model: Option<&str>,
        image: &Grid,
    ) -> Result<Inference, ClientError> {
        let mut pairs = Vec::new();
        if let Some(name) = model {
            pairs.push(("model".to_string(), Json::Str(name.into())));
        }
        pairs.push(("image".to_string(), Json::numbers(image.as_slice())));
        let body = Json::object(pairs).to_string();
        let (status, text) = self.request("POST", "/v1/logits", Some(&body))?;
        let doc = parse_reply(status, &text)?;
        Ok(Inference {
            model: field_str(&doc, "model")?,
            class: field_usize(&doc, "class")?,
            logits: field_numbers(&doc, "logits")?,
            latency_us: field_f64(&doc, "latency_us")?,
        })
    }

    /// `POST /v2/logits` for a batch of images; `model`/`head` of `None`
    /// use the server defaults.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure, [`ClientError::Api`] on
    /// an error status (structured `/v2` fields populated).
    pub fn logits_v2(
        &mut self,
        model: Option<&str>,
        head: Option<&str>,
        inputs: &[&Grid],
    ) -> Result<BatchInference, ClientError> {
        let mut pairs = Vec::new();
        if let Some(name) = model {
            pairs.push(("model".to_string(), Json::Str(name.into())));
        }
        if let Some(name) = head {
            pairs.push(("head".to_string(), Json::Str(name.into())));
        }
        pairs.push((
            "inputs".to_string(),
            Json::Arr(inputs.iter().map(|g| Json::numbers(g.as_slice())).collect()),
        ));
        let body = Json::object(pairs).to_string();
        let (status, text) = self.request("POST", "/v2/logits", Some(&body))?;
        let doc = parse_reply(status, &text)?;
        let results = doc
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| malformed("results"))?
            .iter()
            .map(|entry| {
                Ok(ClassLogits {
                    class: field_usize(entry, "class")?,
                    logits: field_numbers(entry, "logits")?,
                })
            })
            .collect::<Result<_, ClientError>>()?;
        Ok(BatchInference {
            model: field_str(&doc, "model")?,
            head: field_str(&doc, "head")?,
            results,
            latency_us: field_f64(&doc, "latency_us")?,
        })
    }
}

/// Parses a reply body, converting error statuses into [`ApiError`]
/// (understanding both the `/v1` `{"error"}` and `/v2`
/// `{"code","message","retry_after_ms"}` shapes).
fn parse_reply(status: u16, text: &str) -> Result<Json, ClientError> {
    let doc = Json::parse(text).map_err(|_| malformed("response body"))?;
    if (200..300).contains(&status) {
        return Ok(doc);
    }
    let error = if let Some(code) = doc.get("code").and_then(Json::as_str) {
        ApiError {
            status,
            code: code.to_string(),
            message: doc
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            retry_after_ms: doc
                .get("retry_after_ms")
                .and_then(Json::as_f64)
                .map(|ms| ms as u64),
        }
    } else {
        ApiError {
            status,
            code: "error".to_string(),
            message: doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or(text)
                .to_string(),
            retry_after_ms: None,
        }
    };
    Err(ClientError::Api(error))
}

fn malformed(what: &str) -> ClientError {
    ClientError::Io(bad(&format!("malformed {what} in server reply")))
}

fn field_str(doc: &Json, name: &str) -> Result<String, ClientError> {
    doc.get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| malformed(name))
}

fn field_usize(doc: &Json, name: &str) -> Result<usize, ClientError> {
    doc.get(name)
        .and_then(Json::as_usize)
        .ok_or_else(|| malformed(name))
}

fn field_f64(doc: &Json, name: &str) -> Result<f64, ClientError> {
    doc.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| malformed(name))
}

fn field_numbers(doc: &Json, name: &str) -> Result<Vec<f64>, ClientError> {
    doc.get(name)
        .and_then(Json::as_array)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .ok_or_else(|| malformed(name))
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, String)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad("empty response"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("eof in response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| bad("non-UTF-8 response body"))
}
