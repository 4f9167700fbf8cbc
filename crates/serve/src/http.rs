//! Minimal std-only HTTP/1.1 reading shared by the service and its client:
//! one buffered [`MessageReader`] per connection frames messages (head up to
//! CRLFCRLF, then a `Content-Length` body) and [`Request`] is the server's
//! view of one; replies are written by `conn.rs`. Deliberately small — the
//! service speaks a fixed JSON API to trusted clients; this is not a
//! general-purpose web server.

use std::io::Read;

/// Maximum header block size (bytes), terminator included.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum request body size (arrays of a few million f32 as JSON).
const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;
/// Bytes asked of the transport per head read: a whole small request (head
/// and body) arrives in one `read`.
const READ_CHUNK: usize = 8 * 1024;

/// Why no message could be framed.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed, timed out or closed: there is nobody to answer.
    Io(std::io::Error),
    /// The peer broke the framing rules: answer with this status and
    /// message, then close — what follows on the stream cannot be trusted
    /// to start at a message boundary.
    Rejected(u16, &'static str),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e,
            FrameError::Rejected(_, msg) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
            }
        }
    }
}

/// One framed message: the head split into its start line and the two
/// headers this protocol acts on, plus the body bytes.
#[derive(Debug)]
pub struct Message {
    /// Request line or status line, without the CRLF.
    pub start_line: String,
    /// `Connection: keep-alive` → `Some(true)`, `close` → `Some(false)`.
    pub keep_alive: Option<bool>,
    pub body: Vec<u8>,
}

/// The per-connection buffered reader. One message is framed at a time;
/// bytes read past its end stay buffered and start the next message, so
/// pipelined requests are served in order. Generic over the transport so
/// tests can count and fragment reads.
pub struct MessageReader<R> {
    inner: R,
    /// Bytes read from `inner` and not yet consumed by a message.
    buf: Vec<u8>,
}

impl<R: Read> MessageReader<R> {
    pub fn new(inner: R) -> Self {
        MessageReader {
            inner,
            buf: Vec::with_capacity(READ_CHUNK),
        }
    }

    /// The transport, for writing replies and setting timeouts.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Read once from the transport onto the end of `buf`.
    fn fill(&mut self) -> std::io::Result<()> {
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let read = self.inner.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |n| *n));
        match read {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-message",
            )),
            // Interrupted: nothing arrived; the caller's loop reads again.
            Err(e) if e.kind() != std::io::ErrorKind::Interrupted => Err(e),
            _ => Ok(()),
        }
    }

    /// Frame the next message.
    pub fn read_message(&mut self) -> Result<Message, FrameError> {
        const HEAD_TOO_LARGE: FrameError = FrameError::Rejected(400, "header block too large");
        // The head: everything up to the first CRLFCRLF, which must end
        // within `MAX_HEADER_BYTES`.
        let mut scanned = 0usize;
        let head_len = loop {
            let from = scanned.saturating_sub(3);
            if let Some(at) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + at + 4;
            }
            scanned = self.buf.len();
            if scanned >= MAX_HEADER_BYTES {
                return Err(HEAD_TOO_LARGE);
            }
            self.fill()?;
        };
        if head_len > MAX_HEADER_BYTES {
            return Err(HEAD_TOO_LARGE);
        }
        let (start_line, content_length, keep_alive) = {
            let head = String::from_utf8_lossy(&self.buf[..head_len - 4]);
            let mut lines = head.split("\r\n");
            let start_line = lines.next().unwrap_or_default().to_string();
            let mut content_length = None;
            let mut keep_alive = None;
            for (name, value) in lines.filter_map(|line| line.split_once(':')) {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    // A length that is not plain digits (`usize::from_str`
                    // takes a `+`), or a second one that disagrees, cannot
                    // be read as any one body: the body bytes would be
                    // framed as the next message.
                    const MALFORMED: FrameError =
                        FrameError::Rejected(400, "malformed Content-Length");
                    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(MALFORMED);
                    }
                    let length = value.parse().map_err(|_| MALFORMED)?;
                    if content_length.is_some_and(|seen| seen != length) {
                        return Err(FrameError::Rejected(400, "conflicting Content-Length"));
                    }
                    content_length = Some(length);
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    // Bodies are framed by Content-Length only; a chunked
                    // body read as "no body" would be framed as requests.
                    return Err(FrameError::Rejected(501, "Transfer-Encoding not supported"));
                } else if name.eq_ignore_ascii_case("connection") {
                    if value.eq_ignore_ascii_case("close") {
                        keep_alive = Some(false);
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = Some(true);
                    }
                }
            }
            (start_line, content_length.unwrap_or(0), keep_alive)
        };
        if content_length > MAX_BODY_BYTES {
            return Err(FrameError::Rejected(413, "body too large"));
        }
        // The body: what is already buffered, then the rest straight from
        // the transport into its final allocation. Bytes buffered past the
        // body's end stay behind for the next message.
        let buffered = (self.buf.len() - head_len).min(content_length);
        let mut body = vec![0u8; content_length];
        body[..buffered].copy_from_slice(&self.buf[head_len..head_len + buffered]);
        self.buf.drain(..head_len + buffered);
        self.inner.read_exact(&mut body[buffered..])?;
        Ok(Message {
            start_line,
            keep_alive,
            body,
        })
    }

    /// Frame and parse the next request.
    pub fn read_request(&mut self) -> Result<Request, FrameError> {
        let message = self.read_message()?;
        let mut parts = message.start_line.split_whitespace();
        let method = parts.next().unwrap_or_default().to_string();
        let target = parts.next().unwrap_or_default();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let version = parts.next().unwrap_or("HTTP/1.1");
        if method.is_empty() || path.is_empty() {
            return Err(FrameError::Rejected(400, "malformed request line"));
        }
        let body = String::from_utf8(message.body)
            .map_err(|_| FrameError::Rejected(400, "non-UTF-8 body"))?;
        Ok(Request {
            method,
            path,
            query,
            body,
            keep_alive: message
                .keep_alive
                .unwrap_or(!version.eq_ignore_ascii_case("HTTP/1.0")),
        })
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path component only — any `?query` is split off into [`Request::query`].
    pub path: String,
    /// Raw query string (text after the first `?`, without the `?`); empty
    /// when the request target carried none.
    pub query: String,
    pub body: String,
    /// Whether the connection should stay open after the response —
    /// HTTP/1.1 defaults to keep-alive unless the client sends
    /// `Connection: close`; HTTP/1.0 defaults to close unless the client
    /// sends `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// Path split on `/`, empty segments dropped: `/sessions/3/launch` →
    /// `(["sessions", "3", "launch", ""], 3)`. Routes have at most three
    /// segments, so four slots tell every routable path from a longer one
    /// (which keeps its first four and matches nothing) without allocating.
    pub fn segments(&self) -> ([&str; 4], usize) {
        let mut parts = [""; 4];
        let mut len = 0;
        for segment in self.path.split('/').filter(|s| !s.is_empty()).take(4) {
            parts[len] = segment;
            len += 1;
        }
        (parts, len)
    }

    /// The value of query parameter `name` (`/trace?since=12` → `"12"`),
    /// percent-decoded (`%7B` → `{`, `+` → space). A bare `?flag` (no `=`)
    /// yields `Some("")`.
    /// Malformed escapes (`%G1`, truncated `%2`) pass through literally
    /// rather than erroring — the route handler's own validation rejects
    /// the value if it matters.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then(|| percent_decode(v))
        })
    }
}

/// Decode `%XX` escapes and `+`-as-space in a query-parameter value.
/// Malformed or truncated escapes are kept literally; decoded bytes that are
/// not valid UTF-8 are replaced (`U+FFFD`) rather than rejected.
fn percent_decode(value: &str) -> String {
    let bytes = value.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    let text = std::str::from_utf8(pair).ok()?;
                    u8::from_str_radix(text, 16).ok()
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_with_query(query: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/trace".to_string(),
            query: query.to_string(),
            body: String::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn query_param_percent_decodes_values() {
        let req = request_with_query(
            "name=ftn_pool_queue_depth%7Bpool%3D%22abc%22%2Cdevice%3D%220%22%7D&since=12",
        );
        assert_eq!(
            req.query_param("name").as_deref(),
            Some("ftn_pool_queue_depth{pool=\"abc\",device=\"0\"}")
        );
        assert_eq!(req.query_param("since").as_deref(), Some("12"));
        assert_eq!(req.query_param("until"), None);
    }

    #[test]
    fn query_param_decodes_plus_and_bare_flags() {
        let req = request_with_query("q=a+b&flag");
        assert_eq!(req.query_param("q").as_deref(), Some("a b"));
        assert_eq!(req.query_param("flag").as_deref(), Some(""));
    }

    #[test]
    fn malformed_escapes_pass_through_literally() {
        // Non-hex digits after %.
        assert_eq!(percent_decode("%G1x"), "%G1x");
        // Truncated escape at end of string.
        assert_eq!(percent_decode("abc%2"), "abc%2");
        assert_eq!(percent_decode("abc%"), "abc%");
        // A valid escape after a malformed one still decodes.
        assert_eq!(percent_decode("%zz%20"), "%zz ");
        // Invalid UTF-8 from decoded bytes is replaced, not an error.
        assert_eq!(percent_decode("%FF"), "\u{FFFD}");
    }

    /// Frame `wire` and return the rejection's status, or the body framed.
    fn frame(wire: &[u8]) -> Result<Vec<u8>, u16> {
        match MessageReader::new(wire).read_message() {
            Ok(message) => Ok(message.body),
            Err(FrameError::Rejected(status, _)) => Err(status),
            Err(FrameError::Io(e)) => panic!("transport error on an in-memory stream: {e}"),
        }
    }

    #[test]
    fn content_length_headers_that_disagree_are_rejected() {
        let agree = b"POST /run HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(frame(agree), Ok(b"hello".to_vec()));
        let disagree = b"POST /run HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello";
        assert_eq!(frame(disagree), Err(400));
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        for length in ["+5", "-5", "5 5", "0x5", ""] {
            let wire = format!("POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\nhello");
            assert_eq!(frame(wire.as_bytes()), Err(400), "Content-Length: {length}");
        }
    }

    #[test]
    fn any_transfer_encoding_is_not_implemented() {
        for coding in ["chunked", "gzip, chunked", "identity"] {
            let wire = format!(
                "POST /run HTTP/1.1\r\nTransfer-Encoding: {coding}\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            );
            assert_eq!(
                frame(wire.as_bytes()),
                Err(501),
                "Transfer-Encoding: {coding}"
            );
        }
    }
}
