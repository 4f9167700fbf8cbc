//! The wire layer under well-formed, pipelined, oversized, truncated and
//! hostile input: the per-connection [`MessageReader`] frames with about one
//! `read` per small request and carries leftover bytes forward, every request
//! that frames gets one reply in order, and input that does not frame gets a
//! 400/413/501 and a close (or just the close when the peer is gone) without any
//! handler running or any session or pool memory changing hands.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use ftn_serve::client::Conn;
use ftn_serve::http::{FrameError, MessageReader, MAX_HEADER_BYTES};
use ftn_serve::{ServeConfig, Server};
use serde::Value;

const SAXPY: &str = r#"
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n, i
  real :: a, x(n), y(n)
  !$omp target parallel do simd simdlen(10)
  do i = 1, n
    y(i) = y(i) + a*x(i)
  end do
  !$omp end target parallel do simd
end subroutine saxpy
"#;

// ---- the reader alone, over counted and fragmented transports ------------------------

/// A transport that hands out at most `step` bytes per `read` and counts
/// the calls.
struct Scripted<'a> {
    bytes: &'a [u8],
    step: usize,
    reads: usize,
}

impl Read for Scripted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn launch_request() -> Vec<u8> {
    let body = r#"{"kernel":"k","args":[{"f32":2}]}"#;
    let request = format!(
        "POST /sessions/1/launch HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    assert!((120..140).contains(&request.len()), "{}", request.len());
    request.into_bytes()
}

#[test]
fn a_small_request_is_framed_in_at_most_two_reads() {
    let wire = launch_request();
    let mut reader = MessageReader::new(Scripted {
        bytes: &wire,
        step: usize::MAX,
        reads: 0,
    });
    let req = reader.read_request().expect("frames");
    assert_eq!(
        (req.method.as_str(), req.path.as_str()),
        ("POST", "/sessions/1/launch")
    );
    assert_eq!(req.body, r#"{"kernel":"k","args":[{"f32":2}]}"#);
    assert!(req.keep_alive);
    let reads = reader.get_mut().reads;
    assert!(
        reads <= 2,
        "{reads} reads for a {}-byte request",
        wire.len()
    );
}

#[test]
fn framing_is_independent_of_how_the_transport_fragments() {
    // Three pipelined requests: a body-less GET, a POST with a body, an
    // HTTP/1.0 request (close by default), then half of a fourth.
    let mut wire = b"GET /stats?x=1 HTTP/1.1\r\nHost: a\r\n\r\n".to_vec();
    wire.extend_from_slice(&launch_request());
    wire.extend_from_slice(b"GET /healthz HTTP/1.0\r\n\r\nGET /trunc");
    for step in [1, 2, 3, 7, 64, 4096, usize::MAX] {
        let mut reader = MessageReader::new(Scripted {
            bytes: &wire,
            step,
            reads: 0,
        });
        let first = reader.read_request().expect("first");
        assert_eq!(
            (
                first.path.as_str(),
                first.query.as_str(),
                first.body.as_str()
            ),
            ("/stats", "x=1", ""),
            "step {step}"
        );
        let second = reader.read_request().expect("second");
        assert_eq!(second.path, "/sessions/1/launch", "step {step}");
        assert_eq!(second.body.len(), 33, "step {step}");
        let third = reader.read_request().expect("third");
        assert_eq!((third.path.as_str(), third.keep_alive), ("/healthz", false));
        match reader.read_request() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("step {step}: a cut-off head must be an EOF, got {other:?}"),
        }
    }
}

#[test]
fn head_limit_is_sixteen_kib_inclusive() {
    let head_of = |len: usize| {
        let fixed = "GET /healthz HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(len - fixed)
        )
    };
    for step in [1, 1000, usize::MAX] {
        let exact = head_of(MAX_HEADER_BYTES);
        assert_eq!(exact.len(), 16 * 1024);
        let mut reader = MessageReader::new(Scripted {
            bytes: exact.as_bytes(),
            step,
            reads: 0,
        });
        assert_eq!(reader.read_request().expect("16 KiB head").path, "/healthz");

        let over = head_of(MAX_HEADER_BYTES + 1);
        let mut reader = MessageReader::new(Scripted {
            bytes: over.as_bytes(),
            step,
            reads: 0,
        });
        match reader.read_request() {
            Err(FrameError::Rejected(400, "header block too large")) => {}
            other => panic!("step {step}: 16 KiB + 1 must be rejected, got {other:?}"),
        }
    }
}

// ---- over a socket ----------------------------------------------------------------------

struct Running {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start() -> Running {
    let config = ServeConfig {
        devices: 1,
        workers: 2,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Running { addr, thread }
}

impl Running {
    fn stop(self) {
        let (status, _) = ftn_serve::client::request(self.addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        self.thread.join().expect("server thread").expect("run");
    }

    /// Write `wire` on a fresh connection and read `replies` responses back
    /// as `(status line, body)`; then the server must have closed when
    /// `then_closed`.
    fn exchange(&self, wire: &[u8], replies: usize, then_closed: bool) -> Vec<(String, String)> {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream.write_all(wire).expect("send");
        let mut reader = MessageReader::new(stream);
        let got = (0..replies)
            .map(|i| {
                let m = reader
                    .read_message()
                    .unwrap_or_else(|e| panic!("reply {i}: {e:?}"));
                (m.start_line, String::from_utf8(m.body).expect("utf-8"))
            })
            .collect();
        if then_closed {
            match reader.read_message() {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
                }
                other => panic!("connection should be closed, got {other:?}"),
            }
        }
        got
    }

    fn stats(&self) -> Value {
        let (status, stats) = ftn_serve::client::request(self.addr, "GET", "/stats", "").unwrap();
        assert_eq!(status, 200);
        stats
    }
}

fn as_u64(v: &Value, path: &[&str]) -> u64 {
    let leaf = path
        .iter()
        .fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("no '{k}'")));
    match leaf {
        Value::UInt(u) => *u,
        Value::Int(i) => *i as u64,
        other => panic!("{path:?}: {other:?}"),
    }
}

#[test]
fn two_requests_in_one_segment_get_two_replies_in_order() {
    let server = start();
    let wire =
        b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\nGET /no-such-route HTTP/1.1\r\nHost: a\r\n\r\n";
    let replies = server.exchange(wire, 2, false);
    assert_eq!(replies[0].0, "HTTP/1.1 200 OK");
    assert!(
        replies[0].1.starts_with("{\"ok\": true"),
        "{}",
        replies[0].1
    );
    assert_eq!(replies[1].0, "HTTP/1.1 404 Not Found");
    assert_eq!(replies[1].1, "{\"error\": \"no route GET /no-such-route\"}");
    server.stop();
}

#[test]
fn unframeable_input_is_answered_then_closed() {
    let server = start();
    let pad = |len: usize| "p".repeat(len - "GET / HTTP/1.1\r\nX: \r\n\r\n".len());

    // Exactly 16 KiB of head is a request like any other (404: no route `/`).
    let exact = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", pad(MAX_HEADER_BYTES));
    assert_eq!(
        server.exchange(exact.as_bytes(), 1, false)[0].0,
        "HTTP/1.1 404 Not Found"
    );
    let over = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", pad(MAX_HEADER_BYTES + 1));
    let cases: [(&[u8], &str, &str); 7] = [
        (
            over.as_bytes(),
            "HTTP/1.1 400 Bad Request",
            "header block too large",
        ),
        (
            b"\r\n\r\n",
            "HTTP/1.1 400 Bad Request",
            "malformed request line",
        ),
        // The body of a request whose length did not parse must never be
        // read as the next request — this one would stop the server.
        (
            b"POST /compile HTTP/1.1\r\nContent-Length: 2x\r\n\r\nPOST /shutdown HTTP/1.1\r\n\r\n",
            "HTTP/1.1 400 Bad Request",
            "malformed Content-Length",
        ),
        // Nor may the body of one whose lengths disagree, or whose body is
        // chunked.
        (
            b"POST /compile HTTP/1.1\r\nContent-Length: 27\r\nContent-Length: 0\r\n\r\nPOST /shutdown HTTP/1.1\r\n\r\n",
            "HTTP/1.1 400 Bad Request",
            "conflicting Content-Length",
        ),
        (
            b"POST /compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1b\r\nPOST /shutdown HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
            "HTTP/1.1 501 Not Implemented",
            "Transfer-Encoding not supported",
        ),
        (
            b"POST /compile HTTP/1.1\r\nContent-Length: 268435457\r\n\r\n",
            "HTTP/1.1 413 Payload Too Large",
            "body too large",
        ),
        (
            b"POST /compile HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
            "HTTP/1.1 400 Bad Request",
            "non-UTF-8 body",
        ),
    ];
    for (wire, status_line, msg) in cases {
        let replies = server.exchange(wire, 1, true);
        assert_eq!(replies[0].0, status_line);
        assert_eq!(replies[0].1, format!("{{\"error\": \"{msg}\"}}"));
    }
    // Still serving, and nothing above counted as a handled request but the
    // 16 KiB one.
    let stats = server.stats();
    assert_eq!(as_u64(&stats, &["http", "requests"]), 2);
    server.stop();
}

#[test]
fn hostile_json_is_a_400_not_a_crash() {
    let server = start();
    let mut conn = Conn::open(server.addr).expect("connect");
    for body in ["[".repeat(100_000), "{\"source\":".repeat(20_000)] {
        for path in ["/compile", "/sessions", "/run", "/sessions/1/launch"] {
            let (status, reply) = conn.request("POST", path, &body).expect("answered");
            assert_eq!(status, 400, "{path}");
            assert_eq!(
                reply.get("error"),
                Some(&Value::Str(
                    "invalid JSON body: nesting too deep".to_string()
                ))
            );
        }
    }
    // An escaped surrogate pair in a string reaches the handler as one scalar.
    let (status, reply) = conn
        .request(
            "POST",
            "/sessions",
            r#"{"key": "\uD83D\uDE00", "maps": [1]}"#,
        )
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(
        reply.get("error"),
        Some(&Value::Str(
            "unknown artifact key '😀' (compile first)".to_string()
        ))
    );
    drop(conn);
    server.stop();
}

#[test]
fn a_truncated_body_runs_no_handler_and_leaks_nothing() {
    let server = start();
    let mut conn = Conn::open(server.addr).expect("connect");
    let source = serde_json::to_string(&SAXPY.to_string()).unwrap();
    let (status, compiled) = conn
        .request("POST", "/compile", &format!("{{\"source\": {source}}}"))
        .unwrap();
    assert_eq!(status, 200, "{compiled:?}");
    let Some(Value::Str(key)) = compiled.get("key") else {
        panic!("no key in {compiled:?}");
    };
    let data: Vec<String> = (0..4096).map(|i| format!("{i}.5")).collect();
    let open = format!(
        "{{\"key\": \"{key}\", \"maps\": [{{\"name\": \"y\", \"kind\": \"tofrom\", \"data\": [{}]}}]}}",
        data.join(",")
    );
    // A complete open/close first, so the pool exists and its counters have
    // settled.
    let (status, opened) = conn.request("POST", "/sessions", &open).unwrap();
    assert_eq!(status, 200, "{opened:?}");
    let (status, _) = conn.request("DELETE", "/sessions/1", "").unwrap();
    assert_eq!(status, 200);
    let before = server.stats();
    assert_eq!(as_u64(&before, &["sessions_open"]), 0);

    // The same open, cut mid-array at several points, then the peer goes
    // away: with the head alone, mid-body, and one byte short.
    let head = format!(
        "POST /sessions HTTP/1.1\r\nHost: a\r\nContent-Length: {}\r\n\r\n",
        open.len()
    );
    for keep in [0, open.len() / 2, open.len() - 1] {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&open.as_bytes()[..keep]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // The server closes without a reply: there is nobody to answer.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
    }

    let after = server.stats();
    assert_eq!(as_u64(&after, &["sessions_open"]), 0);
    let Some(Value::Arr(pools)) = after.get("pools") else {
        panic!("no pools in {after:?}");
    };
    let Some(Value::Arr(pools_before)) = before.get("pools") else {
        panic!("no pools in {before:?}");
    };
    for counter in [
        "host_buffers",
        "host_bytes",
        "jobs",
        "staged_uploads",
        "devices",
    ] {
        let read = |pools: &[Value]| pools[0].get("stats").and_then(|s| s.get(counter)).cloned();
        assert!(read(pools).is_some(), "no pool counter '{counter}'");
        assert_eq!(
            read(pools),
            read(pools_before),
            "pool counter '{counter}' moved"
        );
    }
    assert_eq!(as_u64(&pools[0], &["stats", "host_buffers"]), 0);
    assert_eq!(as_u64(&pools[0], &["open_sessions"]), 0);
    // Only the two /stats calls in between were handled.
    assert_eq!(
        as_u64(&after, &["http", "requests"]),
        as_u64(&before, &["http", "requests"]) + 1
    );
    drop(conn);
    server.stop();
}

// ---- the golden transcript's number text -------------------------------------------

/// The two `arrays` replies of `tests/golden/wire_replies.txt` as captured
/// while a reply printed each `f32` element as its widened `f64`, with the
/// `/run` reply's `x` as `null`: `/run` returns only the arrays a run
/// wrote, and `saxpyn` only reads `x`.
const WIDENED_ARRAY_REPLIES: [&str; 2] = [
    r#"{"session": 1,"device": 0,"shards": 1,"devices": [0],"stats": {"launches": 3,"staged_uploads": 3,"staged_bytes": 100,"elided_transfers": 6,"fetched_downloads": 2,"halo_refreshes": 0,"halo_rows": 0,"halo_bytes": 0},"arrays": {"y \"quoted\"": [1.5249998569488525,2.0,3.0,157499998208.0,88080384.0,6.0,8.75,21.125,-27.75,5250000343451721000000000000000.0,11.0,343908.0],"z": [0.5]}}"#,
    r#"{"device": 0,"stats": {"kernel_seconds": 0.00000424,"kernel_wall_seconds": 0.000008239999999999999,"transfer_seconds": 0.000075012,"launches": 2,"transfers": 3,"total_cycles": 1272,"launch_cycles": [636,636]},"arrays": [null,[19999999961012896000.0,2.0,1999999991808.0,6000000392516252000000000000000.0,3355443267246025600000000000.0,6.0,66666670934756160000.0,500000010020438700000.0,-1399999957688484000000.0,null,11.0,13100800395407715000000000.0]]}"#,
];

/// `text` as its number tokens and the runs of other bytes around them.
fn numbers_and_the_rest(text: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut numbers, mut rest) = (Vec::new(), Vec::new());
    let mut from = 0;
    let mut chars = text.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        if c == '-' || c.is_ascii_digit() {
            let mut end = at + 1;
            while let Some(&(i, c)) = chars.peek() {
                if !(c.is_ascii_digit() || "+-.eE".contains(c)) {
                    break;
                }
                end = i + 1;
                chars.next();
            }
            rest.push(&text[from..at]);
            numbers.push(&text[at..end]);
            from = end;
        }
    }
    rest.push(&text[from..]);
    (numbers, rest)
}

/// The golden transcript was regenerated once, when a reply array began to
/// print each `f32` in its own shortest digits. Its two `arrays` replies
/// must read back element for element as the same `f32` bits — through
/// `f64` and through `f32` — with every other byte as it was, and no number
/// longer; the rest of the transcript is compared whole by
/// `session_semantics.rs`.
#[test]
fn golden_array_replies_changed_digits_not_values() {
    let golden = include_str!("golden/wire_replies.txt");
    let replies: Vec<&str> = (golden.lines())
        .filter(|line| line.contains("\"arrays\": "))
        .collect();
    assert_eq!(replies.len(), 2, "the DELETE and the /run reply");
    let (mut was_bytes, mut bytes) = (0, 0);
    for (widened, now) in WIDENED_ARRAY_REPLIES.iter().zip(replies) {
        let (was_head, was_arrays) = widened.split_once("\"arrays\": ").unwrap();
        let (head, arrays) = now.split_once("\"arrays\": ").unwrap();
        assert_eq!(head, was_head, "the fields before the arrays");
        let (was_numbers, was_rest) = numbers_and_the_rest(was_arrays);
        let (numbers, rest) = numbers_and_the_rest(arrays);
        assert_eq!(rest, was_rest, "every byte but the numbers");
        assert_eq!(numbers.len(), was_numbers.len());
        for (was, now) in was_numbers.iter().zip(&numbers) {
            let want = (was.parse::<f64>().unwrap() as f32).to_bits();
            let through_f64 = (now.parse::<f64>().unwrap() as f32).to_bits();
            let through_f32 = now.parse::<f32>().unwrap().to_bits();
            assert_eq!((through_f64, through_f32), (want, want), "{was} -> {now}");
            assert!(now.len() <= was.len(), "{was} -> {now}");
        }
        (was_bytes, bytes) = (was_bytes + widened.len(), bytes + now.len());
    }
    // Every number left in the `/run` reply is a large integer whose
    // shortest `f32` digits are as long as its widened ones.
    assert!(bytes < was_bytes, "{bytes} bytes, widened {was_bytes}");
}
