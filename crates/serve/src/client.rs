//! Minimal blocking HTTP/1.1 client for exercising the service from tests,
//! examples and smoke checks.
//!
//! [`Conn`] holds one keep-alive connection and reuses it across requests —
//! a launch burst pays the TCP connect once. The free-standing [`request`]
//! helper keeps the old one-shot behaviour (`Connection: close` per
//! request).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use serde::Value;

use crate::http::MessageReader;

/// One persistent keep-alive connection to the service.
pub struct Conn {
    stream: MessageReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Request head+body go out as one segment already; disable Nagle so
        // a pipelined burst never waits on delayed ACKs.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream: MessageReader::new(stream),
        })
    }

    /// Send one request on the persistent connection and return
    /// `(status, parsed JSON body)`. The connection stays open for the next
    /// request.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Value)> {
        round_trip(&mut self.stream, method, path, body, true)
    }

    /// Like [`Conn::request`] but returning the raw response body — for the
    /// non-JSON endpoints (`GET /metrics` serves a Prometheus text
    /// exposition; `GET /trace` a Chrome trace-event document the caller may
    /// want byte-for-byte).
    pub fn request_text(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        round_trip_text(&mut self.stream, method, path, body, true)
    }
}

/// Send one request on a fresh connection (`Connection: close`) and return
/// `(status, parsed JSON body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, Value)> {
    let mut stream = MessageReader::new(TcpStream::connect(addr)?);
    round_trip(&mut stream, method, path, body, false)
}

/// Send one request on a fresh connection and return the raw response body
/// (see [`Conn::request_text`]).
pub fn request_text(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = MessageReader::new(TcpStream::connect(addr)?);
    round_trip_text(&mut stream, method, path, body, false)
}

fn round_trip(
    stream: &mut MessageReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<(u16, Value)> {
    let (status, body) = round_trip_text(stream, method, path, body, keep_alive)?;
    let value = serde_json::value_from_str(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((status, value))
}

fn round_trip_text(
    stream: &mut MessageReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<(u16, String)> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    stream.get_mut().write_all(&request)?;
    stream.get_mut().flush()?;

    // The body is framed by Content-Length — on a keep-alive connection the
    // server does not close the stream, so read-to-EOF would hang.
    let reply = stream.read_message()?;
    let status: u16 = reply
        .start_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    // The body is owned: take it, and copy only to replace invalid UTF-8.
    let text = String::from_utf8(reply.body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    Ok((status, text))
}
