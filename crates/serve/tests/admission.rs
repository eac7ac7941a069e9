//! Admission accounting and wire robustness: a burst that overruns the
//! admission queue never reports a `queue_depth` above the queue's
//! capacity, and a line nested deeper than the JSON parser accepts costs
//! exactly one `bad_request` while the connection keeps serving.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use bmst_obs::json::{escape, Json};
use bmst_serve::{ServeConfig, ServeSummary, Server};

/// Binds `cfg`, runs the server on a thread, and hands `client` a
/// connected stream and reader. Shuts the server down afterwards and
/// returns its final counters.
fn with_server(
    cfg: ServeConfig,
    client: impl FnOnce(&mut TcpStream, &mut BufReader<TcpStream>),
) -> ServeSummary {
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let run = thread::spawn(move || server.run().unwrap());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    client(&mut stream, &mut reader);
    handle.shutdown();
    run.join().unwrap()
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "server closed before responding");
    Json::parse(line.trim()).unwrap()
}

fn error_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

/// An 800-sink net on a scrambled lattice: slow enough to route (in any
/// build) that a pipelined burst piles up behind one worker.
fn big_netlist() -> String {
    let mut text = "net big normal\n0 0\n".to_owned();
    for i in 1..=800u32 {
        writeln!(text, "{} {}", (i * 37) % 1009, (i * 53) % 997).unwrap();
    }
    text.push_str("end\n");
    text
}

#[test]
fn shedding_burst_never_reports_depth_above_capacity() {
    const CAPACITY: usize = 2;
    const BURST: u64 = 40;
    let netlist = escape(&big_netlist());
    let summary = with_server(
        ServeConfig {
            workers: 1,
            queue_capacity: CAPACITY,
            cache_entries: 0,
            ..ServeConfig::default()
        },
        |stream, reader| {
            // One write: every route line is followed by a status probe,
            // which the connection answers inline between admissions.
            let mut burst = String::new();
            for i in 0..BURST {
                writeln!(
                    burst,
                    r#"{{"id":{i},"op":"route","cache":false,"netlist":{netlist}}}"#
                )
                .unwrap();
                writeln!(burst, r#"{{"id":{},"op":"status"}}"#, 1000 + i).unwrap();
            }
            stream.write_all(burst.as_bytes()).unwrap();
            let mut shed = 0;
            for _ in 0..2 * BURST {
                let response = read_json(reader);
                let id = response.get("id").and_then(Json::as_f64).unwrap();
                if id >= 1000.0 {
                    let depth = response
                        .get("status")
                        .and_then(|s| s.get("queue_depth"))
                        .and_then(Json::as_f64)
                        .unwrap();
                    assert!(
                        depth <= CAPACITY as f64,
                        "queue_depth {depth} above capacity {CAPACITY}"
                    );
                } else if error_kind(&response) == Some("overloaded") {
                    shed += 1;
                }
            }
            assert!(shed > 0, "the burst never overran the queue");
        },
    );
    assert_eq!(summary.accepted + summary.shed, BURST);
    assert_eq!(summary.completed, summary.accepted);
}

#[test]
fn overdeep_line_is_one_bad_request_and_the_connection_survives() {
    let summary = with_server(ServeConfig::default(), |stream, reader| {
        let mut lines = "[".repeat(100_000);
        lines.push_str("\n{\"id\":7,\"op\":\"status\"}\n");
        stream.write_all(lines.as_bytes()).unwrap();
        let rejected = read_json(reader);
        assert_eq!(error_kind(&rejected), Some("bad_request"), "{rejected}");
        let status = read_json(reader);
        assert_eq!(
            status.get("id").and_then(Json::as_f64),
            Some(7.0),
            "{status}"
        );
        assert!(status.get("status").is_some(), "{status}");
    });
    assert_eq!(summary.malformed, 1);
}
