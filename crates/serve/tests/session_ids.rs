//! One session id from HTTP to the device lane: two clients open, launch,
//! refresh and close sessions in two programs (two pools) at once, and
//!
//! * every id `POST /sessions` returns is distinct,
//! * every reply about a session (open, launch, refresh, info, close) names
//!   it by the id the client used,
//! * `GET /profile/top?by=session` keys its rows by those ids, while the
//!   sessions are open and after they close,
//! * each id's `session.launch` spans in `GET /trace` number the launches
//!   made on it, and its `session.open`, `session.refresh_halos` and
//!   `session.close` spans name it too (`session.wait` names none: the
//!   `session.launch` of its trace does).
//!
//! Its own integration-test binary on purpose: the span recorder is
//! process-global, and another server in the same process numbers its
//! sessions from 1 too.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;

use ftn_serve::{api, client, ServeConfig, Server};
use serde::{Serialize, Value};

const SAXPY: &str = include_str!("../../../benchmarks/saxpy.f90");

/// Sessions each client opens, alternating between the two programs.
const SESSIONS_PER_CLIENT: usize = 8;

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("expected unsigned number, got {other:?}"),
    }
}

fn ok(conn: &mut client::Conn, method: &str, path: &str, body: &str) -> Value {
    let (status, reply) = conn.request(method, path, body).expect("round trip");
    assert_eq!(status, 200, "{method} {path}: {reply:?}");
    reply
}

/// Compile SAXPY with or without the MAC fix: two programs, two pools.
fn compile(conn: &mut client::Conn, fix_mac_pattern: bool) -> String {
    let body = api::obj(vec![
        ("source", SAXPY.to_value()),
        ("fix_mac_pattern", fix_mac_pattern.to_value()),
    ]);
    let compiled = ok(
        conn,
        "POST",
        "/compile",
        &serde_json::to_string(&body).unwrap(),
    );
    api::get_str(&compiled, "key").expect("key").to_string()
}

/// The keys of `GET /profile/top?by=session`.
fn session_rows(conn: &mut client::Conn) -> BTreeSet<u64> {
    let top = ok(conn, "GET", "/profile/top?by=session&k=1000", "");
    let Some(Value::Arr(rows)) = top.get("rows") else {
        panic!("no rows in {top:?}");
    };
    (rows.iter())
        .map(|row| {
            let key = api::get_str(row, "key").expect("row key");
            key.parse()
                .unwrap_or_else(|_| panic!("session key '{key}'"))
        })
        .collect()
}

/// One client's sessions: open in alternate programs, launch 1–3 times,
/// refresh, read, check the session's row, close. `(id, launches)` each.
fn client(addr: SocketAddr, keys: [String; 2], first: usize) -> Vec<(u64, u64)> {
    let mut conn = client::Conn::open(addr).expect("connect");
    let launch = r#"{"kernel": "saxpy_kernel0", "args": [
        {"array": "x"}, {"array": "y"}, {"extent": "x"}, {"extent": "y"},
        {"f32": 2.0}, {"index": 1}, {"extent": "x"}], "refresh_halos": true}"#;
    let mut made = Vec::new();
    for i in 0..SESSIONS_PER_CLIENT {
        let key = &keys[(first + i) % 2];
        let open = format!(
            r#"{{"key": "{key}", "shards": 2, "maps": [
                {{"name": "x", "kind": "to", "halo": 1, "data": [1, 2, 3, 4, 5, 6, 7, 8]}},
                {{"name": "y", "kind": "tofrom", "halo": 1, "data": [0, 0, 0, 0, 0, 0, 0, 0]}}]}}"#
        );
        let sid = as_u64(ok(&mut conn, "POST", "/sessions", &open).get("session"));
        let launches = 1 + (i % 3) as u64;
        let mut replies = Vec::new();
        for _ in 0..launches {
            replies.push(ok(
                &mut conn,
                "POST",
                &format!("/sessions/{sid}/launch"),
                launch,
            ));
        }
        replies.push(ok(
            &mut conn,
            "POST",
            &format!("/sessions/{sid}/refresh"),
            "",
        ));
        replies.push(ok(&mut conn, "GET", &format!("/sessions/{sid}"), ""));
        assert!(session_rows(&mut conn).contains(&sid), "open session {sid}");
        replies.push(ok(&mut conn, "DELETE", &format!("/sessions/{sid}"), ""));
        for reply in &replies {
            assert_eq!(as_u64(reply.get("session")), sid, "{reply:?}");
        }
        made.push((sid, launches));
    }
    made
}

#[test]
fn a_session_has_one_id_from_http_to_the_device_lane() {
    let config = ServeConfig {
        devices: 2,
        workers: 4,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());
    let mut conn = client::Conn::open(addr).expect("connect");
    let keys = [compile(&mut conn, false), compile(&mut conn, true)];
    assert_ne!(keys[0], keys[1], "two programs");

    let clients: Vec<_> = (0..2)
        .map(|first| {
            let keys = keys.clone();
            std::thread::spawn(move || client(addr, keys, first))
        })
        .collect();
    let made: Vec<(u64, u64)> = (clients.into_iter())
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    let ids: BTreeSet<u64> = made.iter().map(|(sid, _)| *sid).collect();
    assert_eq!(ids.len(), 2 * SESSIONS_PER_CLIENT, "distinct ids: {made:?}");

    // Closed sessions keep their rows, under the ids the clients used.
    assert_eq!(session_rows(&mut conn), ids);

    // Every session span names the session it worked on.
    let (status, trace) = conn.request_text("GET", "/trace", "").expect("trace");
    assert_eq!(status, 200);
    let trace = serde_json::value_from_str(&trace).expect("trace JSON");
    let Some(Value::Arr(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents");
    };
    let mut spans: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    for e in events {
        let name = api::get_opt_str(e, "name").unwrap_or_default();
        if name.starts_with("session.") && name != "session.wait" {
            let args = e.get("args").expect("span args");
            let sid = api::get_str(args, "session").expect("session arg");
            let sid = sid.parse().expect("numeric id");
            *spans.entry((name, sid)).or_default() += 1;
        }
    }
    for (sid, launches) in made {
        assert_eq!(spans.get(&("session.launch", sid)), Some(&launches));
        // One manual refresh and one per launch (`refresh_halos: true`).
        let refreshes = Some(&(launches + 1));
        assert_eq!(spans.get(&("session.refresh_halos", sid)), refreshes);
        assert_eq!(spans.get(&("session.open", sid)), Some(&1));
        assert_eq!(spans.get(&("session.close", sid)), Some(&1));
    }
    assert_eq!(spans.len(), 4 * ids.len(), "no span names another id");

    ok(&mut conn, "POST", "/shutdown", "");
    drop(conn);
    running.join().expect("server thread").expect("clean run");
}
