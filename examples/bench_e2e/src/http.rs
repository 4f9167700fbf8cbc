//! The load generator's HTTP side: one keep-alive connection, closed loop
//! (the next request goes out only after the previous reply was read and
//! parsed, as an OpenMP offload caller waits for each reply), plus the
//! small JSON helpers the scripts share.
//!
//! The client waits for a reply by polling the socket for up to
//! [`SPIN`], yielding between polls, and only then blocks. On this 2-vCPU
//! shared VM a sleeping client puts its vCPU to sleep with it, and how long
//! the host takes to wake a halted vCPU (tens of microseconds to over a
//! millisecond, by the minute) then decides a 0.2 ms launch's latency;
//! replies that take longer than the spin window block as usual, so the
//! client never competes with a long kernel for a core.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::layers::{self, Value};
use crate::trace::Recorder;

/// How long the client polls for a reply before it blocks.
const SPIN: Duration = Duration::from_millis(2);

/// One keep-alive connection. Every rep opens a fresh one: the server reaps
/// connections idle for `idle_timeout_secs` (5 s), so a connection kept
/// across reps would be closed under an idle workload.
pub struct Client {
    stream: TcpStream,
    /// Bytes read so far of the reply being received.
    buf: Vec<u8>,
    /// Scratch for one `read`.
    chunk: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // A request goes out as one segment; never wait on delayed ACKs.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Send one request and return the parsed reply with the client-observed
    /// latency in microseconds (send, server, receive, JSON parse). Any
    /// status but 200 is an error. `span` names the traced rep's span.
    pub fn call(
        &mut self,
        rec: &mut Recorder,
        span: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(Value, f64), String> {
        rec.span(span, |_| {
            let started = Instant::now();
            let (status, text) = self
                .round_trip(method, path, body)
                .map_err(|e| format!("{method} {path}: {e}"))?;
            let reply =
                layers::json_from_str(&text).map_err(|e| format!("{method} {path}: {e}"))?;
            let micros = started.elapsed().as_secs_f64() * 1e6;
            if status != 200 {
                return Err(format!("{method} {path}: status {status}: {reply:?}"));
            }
            Ok((reply, micros))
        })
    }

    /// A raw-text request (`GET /stats` size, `/profile`), untimed.
    pub fn text(&mut self, method: &str, path: &str) -> Result<String, String> {
        let (status, body) = self
            .round_trip(method, path, "")
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if status != 200 {
            return Err(format!("{method} {path}: status {status}"));
        }
        Ok(body)
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.stream.write_all(&request)?;

        self.buf.clear();
        let sent = Instant::now();
        self.stream.set_nonblocking(true)?;
        let mut blocking = false;
        let (head_len, status, content_length) = loop {
            self.fill(sent, &mut blocking)?;
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                break (end + 4, status_of(&head)?, content_length_of(&head));
            }
        };
        while self.buf.len() < head_len + content_length {
            self.fill(sent, &mut blocking)?;
        }
        if !blocking {
            self.stream.set_nonblocking(false)?;
        }
        let body = &self.buf[head_len..head_len + content_length];
        Ok((status, String::from_utf8_lossy(body).into_owned()))
    }

    /// Read whatever has arrived into `buf`; if nothing has, yield, and once
    /// [`SPIN`] has passed since the request went out, block instead.
    fn fill(&mut self, sent: Instant, blocking: &mut bool) -> std::io::Result<()> {
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if sent.elapsed() >= SPIN {
                        self.stream.set_nonblocking(false)?;
                        *blocking = true;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn status_of(head: &str) -> std::io::Result<u16> {
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed status line"))
}

fn content_length_of(head: &str) -> usize {
    head.split("\r\n")
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0)
}

/// Build a JSON object.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `{"<kind>": <v>}`: one launch/run argument.
pub fn arg(kind: &str, v: impl Serialize) -> Value {
    obj(vec![(kind, v.to_value())])
}

/// Follow `path` through nested objects.
pub fn get<'a>(v: &'a Value, path: &[&str]) -> Result<&'a Value, String> {
    path.iter().try_fold(v, |v, key| {
        v.get(key)
            .ok_or_else(|| format!("reply has no field '{}'", path.join(".")))
    })
}

pub fn as_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

pub fn get_f64(v: &Value, path: &[&str]) -> Result<f64, String> {
    as_f64(get(v, path)?)
}

pub fn get_u64(v: &Value, path: &[&str]) -> Result<u64, String> {
    match get(v, path)? {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!(
            "field '{}': expected an unsigned number, got {other:?}",
            path.join(".")
        )),
    }
}

pub fn as_arr(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Arr(items) => Ok(items),
        other => Err(format!("expected an array, got {other:?}")),
    }
}

pub fn as_f32s(v: &Value) -> Result<Vec<f32>, String> {
    as_arr(v)?
        .iter()
        .map(|x| as_f64(x).map(|f| f as f32))
        .collect()
}
