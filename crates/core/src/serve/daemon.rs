//! The TCP front-end: newline-delimited JSON over the same plain
//! `std::net::TcpListener` scaffolding `egraph-metrics` proved out.
//!
//! # Wire protocol
//!
//! One request per line, one response per line, both JSON objects:
//!
//! ```text
//! → {"id":1,"algo":"bfs","source":42}
//! ← {"id":1,"ok":true,"algo":"bfs","source":42,"wave_size":17,
//!    "wait_us":812,"exec_us":5241,"demux_us":36,"reachable":261904,
//!    "checksum":"c0ffee..."}
//! ```
//!
//! Fields: `algo` is `bfs` | `sssp` | `khop` (`khop` takes `depth`);
//! `"values":true` asks for the full per-vertex array in the response
//! (levels for bfs/khop, distances for sssp — large!). `id` is echoed
//! verbatim so clients may pipeline. `checksum` is the hex
//! [`QueryValues::checksum`](super::QueryValues::checksum) of the answer
//! (a 64-bit word-parallel hash of its values in vertex order), so equal
//! answers carry equal checksums in any wave. Errors come back on the same line
//! slot: `{"id":1,"ok":false,"error":"..."}` — including a line that is
//! not JSON or nests deeper than 128 arrays/objects. The connection stays
//! open until the client closes it — or sends more than 1 MiB without a
//! newline, which is answered with one error and a close.
//!
//! Lines carrying an `op` field instead of `algo` mutate the served
//! graph (DESIGN.md §16):
//!
//! ```text
//! → {"op":"insert","src":3,"dst":9}          (also "delete"; weighted
//! ← {"ok":true,"op":"update","applied":1,     graphs take "weight")
//!    "pending":4}
//! → {"op":"compact"}
//! ← {"ok":true,"op":"compact","epoch":2,"merged_ops":4,
//!    "resident_bytes":123456}
//! ```
//!
//! Updates append to a pending log; queries keep answering from the
//! current snapshot until `compact` merges the log, rebuilds the
//! resident layout and publishes it under a bumped epoch — in-flight
//! waves finish on the snapshot they started with.
//!
//! The daemon also answers plain HTTP on the query port, so load
//! balancers and operators need no second port:
//!
//! - `GET /healthz` — `200 ok layout=<adj|grid|ccsr|delta>
//!   resident_bytes=<N> queue_depth=<Q> inflight=<I> epoch=<E>
//!   pending_ops=<P>` once the layout build finished (`503 loading`
//!   before); queue depth and inflight let a balancer shed load before
//!   saturation, and epoch confirms whether an update stream landed.
//! - `GET /debug/queries?n=K` — the flight recorder's last `K` query
//!   events (default 64, capped by the ring capacity) as NDJSON,
//!   oldest first: every live daemon can always explain its recent
//!   queries.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use egraph_metrics::BindError;
use egraph_parallel::ThreadPool;

use crate::telemetry::json::{self, Value};
use crate::types::VertexId;

use super::engine::{
    Query, QueryKind, QueryOutcome, QueryValues, ServeConfig, ServeEngine, ServeGraph,
};

/// A running `egraph serve` daemon: the batching engine plus the TCP
/// accept loop. Dropping it stops accepting, drains in-flight queries
/// and joins every connection thread.
pub struct ServeDaemon {
    addr: SocketAddr,
    engine: Arc<ServeEngine>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeDaemon")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServeDaemon {
    /// Binds `addr` (port `0` for ephemeral), starts the engine (the
    /// resident layout build proceeds in the background; `/healthz`
    /// reports `loading` until it completes, then the chosen layout
    /// and its resident bytes) and begins accepting connections.
    ///
    /// # Errors
    ///
    /// [`BindError`] naming the offending address when the listener
    /// cannot be established.
    pub fn start(addr: &str, graph: ServeGraph, config: ServeConfig) -> Result<Self, BindError> {
        let wrap = |e: std::io::Error| BindError::new(addr, e);
        let listener = TcpListener::bind(addr).map_err(wrap)?;
        listener.set_nonblocking(true).map_err(wrap)?;
        let bound = listener.local_addr().map_err(wrap)?;
        let engine = Arc::new(ServeEngine::start(graph, config));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("egraph-serve-accept".into())
                .spawn(move || accept_loop(listener, &engine, &stop))
                .map_err(wrap)?
        };
        Ok(Self {
            addr: bound,
            engine,
            stop: stop.clone(),
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the engine finished building the CSR.
    pub fn ready(&self) -> bool {
        self.engine.ready()
    }

    /// Blocks until the engine is ready.
    pub fn wait_ready(&self) {
        self.engine.wait_ready();
    }

    /// The engine's wave pool ([`ServeEngine::pool`]).
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.engine.pool()
    }

    /// Stops accepting connections, drains in-flight queries and joins
    /// the accept loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, engine: &Arc<ServeEngine>, stop: &Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let engine = Arc::clone(engine);
                let stop = Arc::clone(stop);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("egraph-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &engine, &stop);
                    })
                {
                    connections.push(handle);
                }
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Longest request line the daemon buffers (newline excluded). A
/// client that sends more without a newline gets one error and is
/// disconnected, so a connection holds at most this much.
const MAX_REQUEST_BYTES: usize = 1 << 20;

fn handle_connection(
    stream: TcpStream,
    engine: &ServeEngine,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    // A finite read timeout lets the handler notice `stop` between
    // requests from an idle client.
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    // Responses are small and the client is waiting on each one: never
    // hold a segment back for an ACK of the previous response.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Bytes, not a `String`: a timeout may split a multi-byte character.
    let mut line: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let budget = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return Ok(()), // client closed
            Ok(_) => {}
            // A request may arrive in segments further apart than the
            // timeout: what was read stays in `line` and the next read
            // appends to it.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
        // Body and newline leave in one write: split, the newline would
        // be a second segment queued behind the first one's ACK.
        let mut send = |mut response: String| {
            response.push('\n');
            writer.write_all(response.as_bytes())
        };
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            return send(error_response("null", &message));
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return send(error_response("null", "request is not valid utf-8"));
        };
        let trimmed = text.trim();
        // HTTP probes reuse the query port: answer one request and
        // close, exactly what a load balancer (or curl) expects.
        if trimmed.starts_with("GET ") {
            let path = trimmed.split_whitespace().nth(1).unwrap_or("/healthz");
            let (status, content_type, body) = http_get(path, engine);
            let response = format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            return writer.write_all(response.as_bytes());
        }
        if !trimmed.is_empty() {
            send(answer(trimmed, engine))?;
        }
        // Only now: the whole line has been handled.
        line.clear();
    }
}

const TEXT_PLAIN: &str = "text/plain; charset=utf-8";

/// Routes one HTTP GET on the query port:
/// `(status line, content type, body)`.
fn http_get(path: &str, engine: &ServeEngine) -> (&'static str, &'static str, String) {
    let (route, params) = match path.split_once('?') {
        Some((route, params)) => (route, params),
        None => (path, ""),
    };
    match route {
        "/healthz" | "/" => {
            if engine.ready() {
                (
                    "200 OK",
                    TEXT_PLAIN,
                    format!(
                        "ok layout={} resident_bytes={} queue_depth={} inflight={} epoch={} pending_ops={}\n",
                        engine.layout_name(),
                        engine.resident_bytes(),
                        engine.queue_depth(),
                        engine.inflight(),
                        engine.epoch(),
                        engine.pending_ops()
                    ),
                )
            } else {
                ("503 Service Unavailable", TEXT_PLAIN, "loading\n".into())
            }
        }
        "/debug/queries" => {
            let n = params
                .split('&')
                .find_map(|p| p.strip_prefix("n="))
                .map_or(Ok(64), str::parse::<usize>);
            match n {
                Ok(n) => (
                    "200 OK",
                    "application/x-ndjson",
                    engine.journal().dump_ndjson(n),
                ),
                Err(_) => (
                    "400 Bad Request",
                    TEXT_PLAIN,
                    "query parameter n must be a non-negative integer\n".into(),
                ),
            }
        }
        _ => (
            "404 Not Found",
            TEXT_PLAIN,
            "not found (try /healthz or /debug/queries?n=K)\n".into(),
        ),
    }
}

/// Parses one request line — once — and produces the response line (no
/// trailing newline). A line carrying a string `op` mutates the graph;
/// every other line is a query and needs `algo`.
fn answer(line: &str, engine: &ServeEngine) -> String {
    let value = match json::parse(line) {
        Ok(value) => value,
        Err(e) => return error_response("null", &format!("bad json: {e}")),
    };
    if value.as_object().is_none() {
        return error_response("null", "request must be a json object");
    }
    let field = |name: &str| value.get(name);
    let id = match field("id") {
        Some(Value::Number(n)) => json::number(*n),
        Some(Value::String(s)) => json::string(s),
        _ => "null".to_string(),
    };
    if let Some(op) = field("op").and_then(Value::as_str) {
        return answer_update(op, &id, &value, engine);
    }
    let (query, want_values) = match parse_query(field) {
        Ok(parsed) => parsed,
        Err(message) => return error_response(&id, &message),
    };
    let rx = match engine.submit(query) {
        Ok(rx) => rx,
        Err(e) => return error_response(&id, &e.to_string()),
    };
    match rx.recv() {
        Ok(outcome) => ok_response(&id, query, &outcome, want_values),
        Err(_) => error_response(&id, "engine shut down before the query completed"),
    }
}

/// Handles a graph-mutation line whose `op` field is `op`.
fn answer_update(op: &str, id: &str, line: &Value, engine: &ServeEngine) -> String {
    if op == "compact" {
        let c = engine.compact();
        return format!(
            "{{\"id\":{id},\"ok\":true,\"op\":\"compact\",\"epoch\":{},\"merged_ops\":{},\"resident_bytes\":{}}}",
            c.epoch, c.merged_ops, c.resident_bytes
        );
    }
    // insert/delete lines (and unknown ops, which come back as the
    // typed delta error) hand the parsed line to the engine.
    match engine.apply_line(line) {
        Ok(applied) => format!(
            "{{\"id\":{id},\"ok\":true,\"op\":\"update\",\"applied\":{applied},\"pending\":{}}}",
            engine.pending_ops()
        ),
        Err(e) => error_response(id, &e.to_string()),
    }
}

/// Reads a query and its `values` flag out of a request object's
/// fields; the error is the message for the client.
fn parse_query<'a>(field: impl Fn(&str) -> Option<&'a Value>) -> Result<(Query, bool), String> {
    let algo = field("algo")
        .and_then(Value::as_str)
        .ok_or("missing field: algo")?;
    let kind = match algo {
        "bfs" => QueryKind::Bfs,
        "sssp" => QueryKind::Sssp,
        "khop" => QueryKind::KHop,
        other => {
            return Err(format!(
                "unknown algo '{other}' (expected bfs, sssp or khop)"
            ))
        }
    };
    let source = field("source")
        .and_then(Value::as_number)
        .ok_or("missing field: source")?;
    if source < 0.0 || source.fract() != 0.0 || source > f64::from(u32::MAX) {
        return Err(format!("source must be a vertex id, got {source}"));
    }
    let depth = match (kind, field("depth").and_then(Value::as_number)) {
        (QueryKind::KHop, Some(d)) if d >= 0.0 && d.fract() == 0.0 => d as u32,
        (QueryKind::KHop, Some(d)) => return Err(format!("bad depth {d}")),
        (QueryKind::KHop, None) => return Err("khop needs a depth field".to_string()),
        _ => 0,
    };
    let query = Query {
        kind,
        source: source as VertexId,
        depth,
    };
    Ok((query, matches!(field("values"), Some(Value::Bool(true)))))
}

fn ok_response(id: &str, query: Query, outcome: &QueryOutcome, want_values: bool) -> String {
    let mut out = String::with_capacity(160);
    out.push_str(&format!(
        "{{\"id\":{id},\"ok\":true,\"algo\":{},\"source\":{},\"wave_size\":{},\"wait_us\":{},\"exec_us\":{},\"demux_us\":{},\"reachable\":{},\"checksum\":\"{:016x}\"",
        json::string(query.kind.name()),
        query.source,
        outcome.wave_size,
        (outcome.wait_seconds * 1e6).round() as u64,
        (outcome.exec_seconds * 1e6).round() as u64,
        (outcome.demux_seconds * 1e6).round() as u64,
        outcome.values.reachable(),
        outcome.checksum,
    ));
    if want_values {
        out.push_str(",\"values\":[");
        match &outcome.values {
            QueryValues::Levels(levels) => {
                for (i, &l) in levels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if l == u32::MAX {
                        out.push_str("null");
                    } else {
                        out.push_str(&l.to_string());
                    }
                }
            }
            QueryValues::Dists(dists) => {
                for (i, &d) in dists.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::number(f64::from(d)));
                }
            }
        }
        out.push(']');
    }
    out.push('}');
    out
}

fn error_response(id: &str, message: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{}}}",
        json::string(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Edge, EdgeList};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    fn daemon_on_chain(nv: usize) -> ServeDaemon {
        let edges = (0..nv as u32 - 1).map(|v| Edge::new(v, v + 1)).collect();
        daemon_on(EdgeList::new(nv, edges).unwrap())
    }

    fn daemon_on(graph: EdgeList<Edge>) -> ServeDaemon {
        ServeDaemon::start(
            "127.0.0.1:0",
            ServeGraph::Unweighted(graph),
            ServeConfig {
                threads: 1,
                metrics: false,
                ..ServeConfig::default()
            },
        )
        .expect("bind ephemeral port")
    }

    fn roundtrip(addr: std::net::SocketAddr, request: &str) -> Value {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        json::parse(line.trim()).expect("valid json response")
    }

    fn get_field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or(&Value::Null)
    }

    #[test]
    fn daemon_answers_bfs_over_the_wire() {
        let daemon = daemon_on_chain(16);
        let response = roundtrip(
            daemon.addr(),
            r#"{"id":7,"algo":"bfs","source":0,"values":true}"#,
        );
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        assert_eq!(get_field(&response, "id").as_number(), Some(7.0));
        assert_eq!(get_field(&response, "reachable").as_number(), Some(16.0));
        let values = get_field(&response, "values").as_array().unwrap();
        assert_eq!(values[3].as_number(), Some(3.0));
        daemon.shutdown();
    }

    #[test]
    fn daemon_reports_errors_in_band() {
        let daemon = daemon_on_chain(4);
        let response = roundtrip(daemon.addr(), r#"{"id":"q1","algo":"sssp","source":0}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(false));
        assert!(get_field(&response, "error")
            .as_str()
            .unwrap()
            .contains("weighted"));
        let response = roundtrip(daemon.addr(), "not json at all");
        assert_eq!(get_field(&response, "ok"), &Value::Bool(false));
        daemon.shutdown();
    }

    #[test]
    fn sequential_round_trips_do_not_wait_out_delayed_acks() {
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();
        let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let started = std::time::Instant::now();
        let mut line = String::new();
        for id in 0..30 {
            let request = format!("{{\"id\":{id},\"algo\":\"bfs\",\"source\":{}}}\n", id % 16);
            stream.write_all(request.as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).expect("response line");
            assert!(line.contains("\"ok\":true"), "{line}");
        }
        // A response split over two segments on a Nagle socket costs
        // one delayed ACK (~40 ms) per round trip: 1.2 s for these 30.
        // Whole, each takes the 2 ms batching window plus microseconds.
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(30 * 20),
            "30 sequential round trips took {elapsed:?}"
        );
        daemon.shutdown();
    }

    #[test]
    fn a_request_split_across_the_read_timeout_is_answered_whole() {
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();
        let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
        stream.write_all(br#"{"id":1,"algo":"bfs","#).unwrap();
        // Longer than the handler's 250 ms read timeout.
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(b"\"source\":3}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let response = json::parse(line.trim()).expect("valid json response");
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true), "{line}");
        assert_eq!(get_field(&response, "id").as_number(), Some(1.0));
        assert_eq!(get_field(&response, "source").as_number(), Some(3.0));
        daemon.shutdown();
    }

    #[test]
    fn an_oversized_request_line_is_refused_and_the_connection_closed() {
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();
        let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
        // A daemon that buffers without limit never answers: fail, not
        // hang.
        let patience = Duration::from_secs(20);
        stream.set_read_timeout(Some(patience)).unwrap();
        // One byte over the cap and no newline: exactly what the daemon
        // is willing to buffer before it gives up on the line.
        stream
            .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = json::parse(line.trim()).expect("valid json response");
        assert_eq!(get_field(&response, "ok"), &Value::Bool(false), "{line}");
        assert!(get_field(&response, "error")
            .as_str()
            .unwrap()
            .contains("exceeds 1048576 bytes"));
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "closed");
        // The daemon itself is unharmed.
        let response = roundtrip(daemon.addr(), r#"{"id":2,"algo":"bfs","source":0}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        daemon.shutdown();
    }

    #[test]
    fn a_deeply_nested_request_is_refused_and_the_daemon_keeps_serving() {
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();
        // 300 000 open brackets, well under the line cap: without a
        // depth limit the parse overflowed the connection thread's stack
        // and aborted the whole process.
        let nested = format!(r#"{{"id":2,"algo":{}"#, "[".repeat(300_000));
        let response = roundtrip(daemon.addr(), &nested);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(false));
        assert!(get_field(&response, "error")
            .as_str()
            .unwrap()
            .contains("nesting deeper than 128"));
        // A request carrying a 900 KB string is parsed in one pass, not
        // one re-scan of the rest of the line per character (which held
        // the connection for seconds).
        let started = std::time::Instant::now();
        let padded = format!(
            r#"{{"id":3,"algo":"bfs","source":0,"pad":"{}"}}"#,
            "x".repeat(900_000)
        );
        let response = roundtrip(daemon.addr(), &padded);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{:?}",
            started.elapsed()
        );
        // The next query, on a new connection, is answered.
        let response = roundtrip(daemon.addr(), r#"{"id":4,"algo":"bfs","source":0}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        assert_eq!(get_field(&response, "id").as_number(), Some(4.0));
        daemon.shutdown();
    }

    fn http_get_raw(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        response
    }

    #[test]
    fn daemon_serves_healthz_on_the_query_port() {
        let daemon = daemon_on_chain(4);
        daemon.wait_ready();
        let response = http_get_raw(daemon.addr(), "/healthz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = response.rsplit("\r\n\r\n").next().unwrap();
        assert!(
            body.starts_with("ok layout=adj resident_bytes="),
            "{response}"
        );
        // Every key=value field parses; resident bytes are non-zero and
        // the idle daemon reports empty queue and no inflight queries.
        let field = |key: &str| -> u64 {
            body.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("missing {key} in {body}"))
                .parse()
                .unwrap_or_else(|_| panic!("{key} not numeric in {body}"))
        };
        assert!(field("resident_bytes") > 0, "{response}");
        assert_eq!(field("queue_depth"), 0, "{response}");
        assert_eq!(field("inflight"), 0, "{response}");
        daemon.shutdown();
    }

    #[test]
    fn debug_queries_returns_the_last_events_as_ndjson() {
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();
        for source in 0..3 {
            let response = roundtrip(
                daemon.addr(),
                &format!(r#"{{"id":{source},"algo":"bfs","source":{source}}}"#),
            );
            assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        }
        // The journal deposit happens just after the result send: wait
        // until all three queries are in the journal before dumping the
        // last two.
        let dump = |n: usize| {
            let response = http_get_raw(daemon.addr(), &format!("/debug/queries?n={n}"));
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("application/x-ndjson"), "{response}");
            response.rsplit("\r\n\r\n").next().unwrap().to_string()
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dump(3).lines().count() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let body = dump(2);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        for line in &lines {
            let event = json::parse(line).expect("ndjson line parses");
            assert_eq!(get_field(&event, "kind").as_str(), Some("bfs"));
            assert_eq!(get_field(&event, "outcome").as_str(), Some("ok"));
            assert!(get_field(&event, "total_us").as_number().is_some());
            // No update has run, so every wave executed against the
            // initially published snapshot (epoch 1).
            assert_eq!(get_field(&event, "epoch").as_number(), Some(1.0));
        }
        // Oldest first: the last line is the most recent query.
        let last = json::parse(lines[1]).unwrap();
        assert_eq!(get_field(&last, "source").as_number(), Some(2.0));
        daemon.shutdown();
    }

    #[test]
    fn update_ops_mutate_the_graph_over_the_wire() {
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();

        // Insert a shortcut, confirm it is pending, compact, and watch
        // the answer (and the healthz epoch) change.
        let response = roundtrip(daemon.addr(), r#"{"id":1,"op":"insert","src":0,"dst":15}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        assert_eq!(get_field(&response, "applied").as_number(), Some(1.0));
        assert_eq!(get_field(&response, "pending").as_number(), Some(1.0));

        let response = roundtrip(daemon.addr(), r#"{"id":2,"op":"compact"}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(true));
        assert_eq!(get_field(&response, "epoch").as_number(), Some(2.0));
        assert_eq!(get_field(&response, "merged_ops").as_number(), Some(1.0));

        let response = roundtrip(
            daemon.addr(),
            r#"{"id":3,"algo":"bfs","source":0,"values":true}"#,
        );
        let values = get_field(&response, "values").as_array().unwrap();
        assert_eq!(values[15].as_number(), Some(1.0), "shortcut landed");

        let health = http_get_raw(daemon.addr(), "/healthz");
        let body = health.rsplit("\r\n\r\n").next().unwrap();
        assert!(body.contains("epoch=2"), "{health}");
        assert!(body.contains("pending_ops=0"), "{health}");

        // The post-compact query's flight-recorder event is stamped
        // with the epoch its wave executed against. The deposit trails
        // the result send, so poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let response = http_get_raw(daemon.addr(), "/debug/queries?n=1");
            let body = response.rsplit("\r\n\r\n").next().unwrap().to_string();
            if let Some(line) = body.lines().last() {
                let event = json::parse(line).expect("ndjson line parses");
                if get_field(&event, "epoch").as_number() == Some(2.0) {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "journal never showed an epoch-2 event: {body}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // Malformed and unknown ops come back as in-band typed errors.
        let response = roundtrip(daemon.addr(), r#"{"id":4,"op":"explode","src":0,"dst":1}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(false));
        assert!(get_field(&response, "error")
            .as_str()
            .unwrap()
            .contains("unknown op"));
        let response = roundtrip(daemon.addr(), r#"{"id":5,"op":"insert","src":0}"#);
        assert_eq!(get_field(&response, "ok"), &Value::Bool(false));
        daemon.shutdown();
    }

    #[test]
    fn update_lines_apply_the_op_their_top_level_fields_name() {
        // The chain 0 → 1 → … → 15 with 1 → 2 cut.
        let edges = (0..15).filter(|&v| v != 1).map(|v| Edge::new(v, v + 1));
        let daemon = daemon_on(EdgeList::new(16, edges.collect()).unwrap());
        daemon.wait_ready();
        // Nested `op` / `src` keys are data, not fields of the update:
        // each line inserts 1 → 2, as the daemon routes it.
        for line in [
            r#"{"meta":{"op":"delete"},"op":"insert","src":1,"dst":2}"#,
            r#"{"x":{"src":7},"op":"insert","src":1,"dst":2}"#,
        ] {
            let response = roundtrip(daemon.addr(), line);
            assert_eq!(get_field(&response, "ok"), &Value::Bool(true), "{line}");
            assert_eq!(get_field(&response, "applied").as_number(), Some(1.0));
        }
        let response = roundtrip(daemon.addr(), r#"{"op":"compact"}"#);
        assert_eq!(get_field(&response, "merged_ops").as_number(), Some(2.0));

        let reachable = |source: u32| {
            let request = format!(r#"{{"algo":"bfs","source":{source}}}"#);
            get_field(&roundtrip(daemon.addr(), &request), "reachable").as_number()
        };
        assert_eq!(reachable(0), Some(16.0), "1 → 2 inserted, nothing deleted");
        assert_eq!(reachable(7), Some(9.0), "7 → 2 not inserted");
        daemon.shutdown();
    }

    #[test]
    fn update_lines_answer_with_unchanged_error_texts() {
        // The daemon hands the line it parsed to the delta codec; each
        // answer carries the codec's text for that line, named line 1.
        let daemon = daemon_on_chain(16);
        daemon.wait_ready();
        for (line, want) in [
            (
                r#"{"id":1,"op":"explode","src":0,"dst":1}"#,
                r#"{"id":1,"ok":false,"error":"line 1: unknown op \"explode\" (expected insert|delete)"}"#,
            ),
            (
                r#"{"id":2,"op":"insert","src":0}"#,
                r#"{"id":2,"ok":false,"error":"line 1: missing field \"dst\""}"#,
            ),
            (
                r#"{"id":3,"op":"insert","src":-1,"dst":2}"#,
                r#"{"id":3,"ok":false,"error":"line 1: bad value for field \"src\""}"#,
            ),
            (
                r#"{"id":4,"op":"insert","src":0,"dst":99}"#,
                r#"{"id":4,"ok":false,"error":"vertex 99 out of range for a graph with 16 vertices"}"#,
            ),
            (
                r#"{"id":5,"op":"insert","src":0,"dst":1,"weight":"x"}"#,
                r#"{"id":5,"ok":false,"error":"line 1: bad value for field \"weight\""}"#,
            ),
            (
                r#"{"id":6,"op":"delete","src":1.5,"dst":2}"#,
                r#"{"id":6,"ok":false,"error":"line 1: bad value for field \"src\""}"#,
            ),
            (
                r#"{"id":7,"op":"","src":0,"dst":1}"#,
                r#"{"id":7,"ok":false,"error":"line 1: unknown op \"\" (expected insert|delete)"}"#,
            ),
            (
                r#"{"op":"remove","dst":1}"#,
                r#"{"id":null,"ok":false,"error":"line 1: missing field \"src\""}"#,
            ),
            (
                r#"{"id":"u","op":"add","src":"0","dst":1}"#,
                r#"{"id":"u","ok":false,"error":"line 1: bad value for field \"src\""}"#,
            ),
            (
                r#"{"id":10,"op":7,"src":0,"dst":1}"#,
                r#"{"id":10,"ok":false,"error":"missing field: algo"}"#,
            ),
            (
                r#"{"id":11,"op":"insert","src":0,"dst":4294967296}"#,
                r#"{"id":11,"ok":false,"error":"line 1: bad value for field \"dst\""}"#,
            ),
            (
                r#"{"id":12,"op":"insert","src":0,"dst":1,"weight":1e999}"#,
                r#"{"id":12,"ok":false,"error":"line 1: bad value for field \"weight\""}"#,
            ),
            (
                r#"{"id":13,"op":"delete","dst":1,"src":null}"#,
                r#"{"id":13,"ok":false,"error":"line 1: bad value for field \"src\""}"#,
            ),
            (
                r#"{"id":14,"op":"insert","src":0,"dst":1}"#,
                r#"{"id":14,"ok":true,"op":"update","applied":1,"pending":1}"#,
            ),
        ] {
            assert_eq!(answer(line, &daemon.engine), want, "{line}");
        }
        daemon.shutdown();
    }

    #[test]
    fn unknown_paths_and_bad_parameters_get_http_errors() {
        let daemon = daemon_on_chain(4);
        daemon.wait_ready();
        let response = http_get_raw(daemon.addr(), "/nope");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        let response = http_get_raw(daemon.addr(), "/debug/queries?n=potato");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        daemon.shutdown();
    }
}
