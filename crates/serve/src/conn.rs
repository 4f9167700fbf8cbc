//! The connection loop: socket → handler → socket as one linear pass.
//!
//! Invariants every change here must keep:
//!
//! * **One request in flight per connection.** The loop reads a request,
//!   runs its handler to completion and writes the reply before it looks at
//!   the stream again; replies therefore leave in request order.
//! * **Leftover bytes carry over.** The [`MessageReader`] lives as long as
//!   the connection: bytes it read past the end of one request are the start
//!   of the next (pipelined requests), never dropped and never re-read.
//! * **Every request is answered or the connection is closed.** A request
//!   that framed gets exactly one reply — the handler's, its error, or a 500
//!   if it panicked. Input that does not frame gets a 400/413/501 and then the
//!   close, because the next message boundary is unknown; only a dead or
//!   silent transport (EOF, idle timeout, reset) is closed without a reply.
//!
//! A [`Reply`] is rendered straight into the buffer it is sent from, which
//! keeps room for the head in front of the body: one buffer, one `write_all`.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use ftn_trace::Level;
use serde::Value;

use crate::http::{FrameError, MessageReader};
use crate::ServeState;

/// Room kept free ahead of the body for the response head (the longest
/// head this service writes is under 150 bytes).
const HEAD_ROOM: usize = 192;

/// A route's response. Most endpoints speak JSON with status 200, but
/// `GET /metrics` serves the Prometheus text exposition, `GET /trace` a
/// Chrome trace-event document (raw text the Perfetto UI loads directly),
/// and `GET /healthz` carries its own status code (503 when unready) with a
/// JSON body that is not the generic `{"error": ...}` envelope.
pub(crate) struct Reply {
    status: u16,
    content_type: &'static str,
    /// `HEAD_ROOM` bytes of padding, then the body, rendered in place. Once
    /// the body's length is known the head is written right-aligned into
    /// the padding, so head and body are one contiguous slice — no copy of
    /// the body behind the head, and no second segment for a keep-alive
    /// connection to trip the Nagle / delayed-ACK interaction on (a ~40 ms
    /// stall per response).
    buf: String,
}

impl Reply {
    fn new(status: u16, content_type: &'static str) -> Reply {
        Reply {
            status,
            content_type,
            buf: " ".repeat(HEAD_ROOM),
        }
    }

    /// `value` printed as JSON, under an `http.render` span.
    pub(crate) fn json(status: u16, value: &Value) -> Reply {
        let _span = ftn_trace::span("http.render", "http");
        Reply::json_unspanned(status, value)
    }

    fn json_unspanned(status: u16, value: &Value) -> Reply {
        let mut reply = Reply::new(status, "application/json");
        serde_json::append(&mut reply.buf, value);
        reply
    }

    pub(crate) fn text(content_type: &'static str, text: &str) -> Reply {
        let mut reply = Reply::new(200, content_type);
        reply.buf.push_str(text);
        reply
    }

    /// A 200 JSON object: `fields` as [`Reply::json`] prints them, then one
    /// last field `key` whose value `tail` writes straight into the
    /// response buffer — how the array-bearing replies avoid a `Value` per
    /// element. One `http.render` span covers both.
    pub(crate) fn object_with_tail(
        fields: Vec<(&str, Value)>,
        key: &str,
        tail: impl FnOnce(&mut String),
    ) -> Reply {
        let _span = ftn_trace::span("http.render", "http");
        let mut reply = Reply::json_unspanned(200, &crate::api::obj(fields));
        let out = &mut reply.buf;
        out.pop();
        if !out.ends_with('{') {
            out.push(',');
        }
        serde_json::append(out, key);
        out.push_str(": ");
        tail(out);
        out.push('}');
        reply
    }

    /// The generic `{"error": ...}` envelope.
    fn error(status: u16, msg: &str) -> Reply {
        let envelope = crate::api::obj(vec![("error", Value::Str(msg.to_string()))]);
        Reply::json(status, &envelope)
    }

    /// Write the head in front of the body, send both as one write and
    /// flush. `keep_alive` controls the `Connection` header; the caller
    /// closes the stream when it is false.
    fn send(self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.buf.len() - HEAD_ROOM
        );
        let start = HEAD_ROOM
            .checked_sub(head.len())
            .expect("response head fits the room reserved for it");
        let mut bytes = self.buf.into_bytes();
        bytes[start..HEAD_ROOM].copy_from_slice(head.as_bytes());
        stream.write_all(&bytes[start..])?;
        stream.flush()
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Handler error: HTTP status + message.
pub(crate) type HandlerError = (u16, String);

/// Answer input that did not frame, then close. The write side is shut down
/// first and what the peer already sent is drained (bounded in bytes and by
/// a short timeout), so the reply is not lost to the reset that closing
/// with unread input would send.
fn reject(stream: &mut TcpStream, status: u16, msg: &str) {
    if Reply::error(status, msg).send(stream, false).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let _ = std::io::copy(&mut stream.take(256 * 1024), &mut std::io::sink());
    }
}

/// Serve one connection: a keep-alive request loop. The idle timeout bounds
/// how long a quiet connection may hold a worker thread; a request that
/// asked for `Connection: close` (or a shutdown) ends the loop.
pub(crate) fn handle_connection(state: &ServeState, stream: TcpStream) {
    state.metrics.http_connections.inc();
    // Responses are single-write; pair that with TCP_NODELAY so keep-alive
    // request/response cycles never stall on delayed ACKs.
    let _ = stream.set_nodelay(true);
    let idle = Duration::from_secs(state.config.idle_timeout_secs.max(1));
    let _ = stream.set_read_timeout(Some(idle));
    let mut conn = MessageReader::new(stream);
    loop {
        let req = match conn.read_request() {
            Ok(r) => r,
            // Idle timeout, client close, or the wake-up probe connection.
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Rejected(status, msg)) => return reject(conn.get_mut(), status, msg),
        };
        state.metrics.http_requests.inc();
        // Every request is the root of a fresh trace: the `http.request`
        // span parents everything the handler does — session ops, per-shard
        // jobs on device lanes, row exchanges — under one trace id.
        let trace = ftn_trace::trace_scope(ftn_trace::new_trace_id());
        let started = std::time::Instant::now();
        let mut span = ftn_trace::span("http.request", "http");
        span.arg("method", &req.method);
        span.arg("path", &req.path);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.handle(&req)));
        let reply = match outcome {
            Ok(Ok(reply)) => reply,
            Ok(Err((status, msg))) => {
                ftn_trace::log(
                    Level::Debug,
                    "serve",
                    format!("{} {} -> {status}: {msg}", req.method, req.path),
                );
                Reply::error(status, &msg)
            }
            Err(_) => {
                ftn_trace::log(
                    Level::Error,
                    "serve",
                    format!("panic handling {} {}", req.method, req.path),
                );
                Reply::error(500, "internal panic while handling request")
            }
        };
        span.arg("status", reply.status);
        drop(span);
        drop(trace);
        (state.metrics.request_seconds).observe(started.elapsed().as_secs_f64());
        let keep_alive = req.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        if reply.send(conn.get_mut(), keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_is_written_into_the_reserved_room() {
        let mut wire = Vec::new();
        let reply = Reply::text("text/plain; version=0.0.4", "body");
        reply.send(&mut wire, true).unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: 4\r\nConnection: keep-alive\r\n\r\nbody"
        );
        // The longest head the service can write still fits.
        let mut wire = Vec::new();
        let mut longest = Reply::text("text/plain; version=0.0.4", "");
        longest.status = 503;
        longest.buf.push_str(&"x".repeat(100_000));
        longest.send(&mut wire, true).unwrap();
        assert!(wire.starts_with(b"HTTP/1.1 503 Service Unavailable\r\n"));
        assert_eq!(status_text(413), "Payload Too Large");
    }
}
