//! Load generation against an in-process `bmst_serve::Server` over
//! loopback: server lifecycle, a control connection, and the open-loop
//! and closed-loop clients.
//!
//! A client uses the calling thread to send and one spawned thread to read
//! responses over one pipelined connection, so a run never has more than
//! two generator threads and two connections (load plus control).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bmst_obs::json::Json;
use bmst_serve::{ServeConfig, ServeError, ServeSummary, Server, ServerHandle};

use crate::stats::fnv;
use crate::workload::{CACHE_ENTRIES, QUEUE_CAPACITY, WORKERS};

/// How long a client waits for the last responses after it stops sending.
const DRAIN: Duration = Duration::from_secs(5);
/// Read poll of the response reader.
const READ_POLL: Duration = Duration::from_millis(50);

/// A line-oriented connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Sends one line and reads one response line (closed loop, window 1).
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(out)
    }

    /// One `status` request: the server's counters and its round trip.
    pub fn status(&mut self) -> io::Result<(Json, Duration)> {
        let t = Instant::now();
        let line = self.roundtrip("{\"id\":\"status\",\"op\":\"status\"}\n")?;
        let rtt = t.elapsed();
        let json = Json::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        match json.get("status") {
            Some(s) => Ok((s.clone(), rtt)),
            None => Err(io::Error::new(io::ErrorKind::InvalidData, line)),
        }
    }
}

/// Reads a `status` counter.
pub fn status_u64(status: &Json, key: &str) -> u64 {
    status.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Reads `status.queue_depth`. The server counts a job into the depth
/// after handing it to the queue, so a worker that takes it first makes
/// the counter wrap below zero for a moment; such a sample reads as 0.
pub fn queue_depth(status: &Json) -> f64 {
    (status_u64(status, "queue_depth") as i64).max(0) as f64
}

/// A running server plus the control connection used to set it up.
pub struct Live {
    pub addr: SocketAddr,
    pub control: Conn,
    handle: ServerHandle,
    thread: JoinHandle<Result<ServeSummary, ServeError>>,
}

impl Live {
    /// Set-up as a user pays it: bind, answer a first `status`, then one
    /// closed-loop pass over `warm` request lines. Returns the server and
    /// the set-up time.
    pub fn start(warm: &[String]) -> Result<(Live, Duration), String> {
        let t = Instant::now();
        let server = Server::bind(ServeConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            cache_entries: CACHE_ENTRIES,
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = thread::spawn(move || server.run());
        let mut control = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        control.status().map_err(|e| format!("first status: {e}"))?;
        for line in warm {
            let resp = control
                .roundtrip(line)
                .map_err(|e| format!("warm-up: {e}"))?;
            if !resp.contains("\"ok\":true") {
                return Err(format!("warm-up request failed: {}", resp.trim_end()));
            }
        }
        let elapsed = t.elapsed();
        let live = Live {
            addr,
            control,
            handle,
            thread,
        };
        Ok((live, elapsed))
    }

    /// Graceful shutdown; returns the final counters.
    pub fn stop(self) -> Result<ServeSummary, String> {
        self.handle.shutdown();
        drop(self.control);
        match self.thread.join() {
            Ok(res) => res.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// Every response of one client step, indexed by `id - base`.
#[derive(Debug, Default)]
pub struct Responses {
    /// Seconds after the step's start at which the response arrived (NaN
    /// when it never did).
    pub recv_s: Vec<f64>,
    pub ok: Vec<bool>,
    /// FNV-1a of the response's report bytes (0 unless ok).
    pub digest: Vec<u64>,
    /// The report's `total_wirelength` (0 unless ok).
    pub wirelength: Vec<f64>,
    /// Responses whose id had already been answered or was never sent.
    pub unexpected: usize,
}

impl Responses {
    fn with_len(n: usize) -> Self {
        Responses {
            recv_s: vec![f64::NAN; n],
            ok: vec![false; n],
            digest: vec![0; n],
            wirelength: vec![0.0; n],
            ..Responses::default()
        }
    }

    fn grow(&mut self, n: usize) {
        if self.recv_s.len() < n {
            self.recv_s.resize(n, f64::NAN);
            self.ok.resize(n, false);
            self.digest.resize(n, 0);
            self.wirelength.resize(n, 0.0);
        }
    }

    /// Ids sent but never answered.
    pub fn missing(&self, sent: usize) -> usize {
        self.recv_s[..sent].iter().filter(|t| t.is_nan()).count()
    }

    /// Non-ok or missing responses among the first `sent`.
    pub fn failed(&self, sent: usize) -> usize {
        self.ok[..sent].iter().filter(|ok| !**ok).count()
    }

    fn record(&mut self, line: &[u8], base: usize, at: f64) {
        let Some((id, rest)) = parse_id(line) else {
            self.unexpected += 1;
            return;
        };
        let Some(k) = id.checked_sub(base) else {
            self.unexpected += 1;
            return;
        };
        self.grow(k + 1);
        if !self.recv_s[k].is_nan() {
            self.unexpected += 1;
            return;
        }
        self.recv_s[k] = at;
        if let Some(report) = rest.strip_prefix(b"\"ok\":true,\"cached\":") {
            let start = report.iter().position(|&b| b == b'{').unwrap_or(0);
            let report = &report[start..report.len().saturating_sub(1)];
            self.ok[k] = true;
            self.digest[k] = fnv(report);
            self.wirelength[k] = total_wirelength(report).unwrap_or(f64::NAN);
        }
    }
}

/// Splits `{"id":<n>,<rest>}` into `n` and `<rest>}` (newline trimmed).
fn parse_id(line: &[u8]) -> Option<(usize, &[u8])> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((id, rest[digits..].strip_prefix(b",")?))
}

/// The leading `"total_wirelength":<x>` of a rendered report.
fn total_wirelength(report: &[u8]) -> Option<f64> {
    let rest = report.strip_prefix(b"{\"total_wirelength\":")?;
    let end = rest.iter().position(|&b| b == b',')?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// When the reader may stop: after `expected` responses (once known), or
/// at the deadline.
struct ReadPlan {
    expected: AtomicUsize,
    give_up: AtomicBool,
}

/// The response reader of one client step.
fn spawn_reader(
    stream: TcpStream,
    base: usize,
    t0: Instant,
    plan: Arc<ReadPlan>,
    tokens: Option<SyncSender<()>>,
) -> io::Result<JoinHandle<Responses>> {
    stream.set_read_timeout(Some(READ_POLL))?;
    let expected_hint = plan.expected.load(Ordering::SeqCst);
    Ok(thread::spawn(move || {
        let mut out = Responses::with_len(if expected_hint == usize::MAX {
            0
        } else {
            expected_hint
        });
        let mut reader = BufReader::with_capacity(1 << 16, stream);
        let mut buf = Vec::new();
        let mut received = 0;
        loop {
            if received >= plan.expected.load(Ordering::SeqCst)
                || plan.give_up.load(Ordering::SeqCst)
            {
                return out;
            }
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => return out,
                Ok(_) if buf.ends_with(b"\n") => {
                    out.record(&buf, base, t0.elapsed().as_secs_f64());
                    received += 1;
                    buf.clear();
                    if let Some(tx) = &tokens {
                        let _ = tx.try_send(());
                    }
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return out,
            }
        }
    }))
}

/// Waits for the reader, giving up once `deadline` passes.
fn finish(reader: JoinHandle<Responses>, plan: &ReadPlan, deadline: Instant) -> Responses {
    while !reader.is_finished() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    plan.give_up.store(true, Ordering::SeqCst);
    reader.join().unwrap_or_default()
}

/// An open-loop step: request `base + k` is due `offsets[k]` seconds after
/// the start, whatever the server's progress.
pub struct OpenLoop {
    pub responses: Responses,
    /// Seconds each request was sent after it was due.
    pub lag_s: Vec<f64>,
    pub sent: usize,
}

impl OpenLoop {
    /// Latency of each request from its *scheduled* send time, in ms;
    /// failed and missing requests count as `+inf`.
    pub fn latencies_ms(&self, offsets: &[f64]) -> Vec<f64> {
        (0..self.sent)
            .map(|k| {
                if self.responses.ok[k] {
                    (self.responses.recv_s[k] - offsets[k]) * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }
}

/// Runs an open-loop step. `line(id)` renders request `id`; `between`
/// runs on the sending thread whenever it is ahead of schedule (the traced
/// run samples `status` there).
pub fn open_loop(
    addr: SocketAddr,
    base: usize,
    offsets: &[f64],
    line: impl Fn(usize) -> String,
    mut between: impl FnMut(),
) -> io::Result<OpenLoop> {
    let n = offsets.len();
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let plan = Arc::new(ReadPlan {
        expected: AtomicUsize::new(n),
        give_up: AtomicBool::new(false),
    });
    let t0 = Instant::now();
    let reader = spawn_reader(writer.try_clone()?, base, t0, Arc::clone(&plan), None)?;
    let mut lag_s = vec![0.0; n];
    let mut buf = Vec::new();
    let mut k = 0;
    let mut send_err = None;
    while k < n {
        let now = t0.elapsed().as_secs_f64();
        if offsets[k] > now {
            between();
            let wait = offsets[k] - t0.elapsed().as_secs_f64();
            if wait > 0.000_3 {
                thread::sleep(Duration::from_secs_f64(wait - 0.000_2));
            } else {
                thread::yield_now();
            }
            continue;
        }
        while k < n && offsets[k] <= now {
            buf.extend_from_slice(line(base + k).as_bytes());
            lag_s[k] = now - offsets[k];
            k += 1;
        }
        if let Err(e) = writer.write_all(&buf) {
            send_err = Some(e);
            break;
        }
        buf.clear();
    }
    let deadline = t0 + Duration::from_secs_f64(offsets.last().copied().unwrap_or(0.0)) + DRAIN;
    let responses = finish(reader, &plan, deadline);
    match send_err {
        Some(e) => Err(e),
        None => Ok(OpenLoop {
            responses,
            lag_s,
            sent: n,
        }),
    }
}

/// A closed-loop step: `window` requests outstanding until `duration`
/// ends. Measures the throughput the server sustains without shedding.
pub struct ClosedLoop {
    pub responses: Responses,
    pub sent: usize,
    pub duration_s: f64,
}

pub fn closed_loop(
    addr: SocketAddr,
    base: usize,
    window: usize,
    duration: Duration,
    line: impl Fn(usize) -> String,
) -> io::Result<ClosedLoop> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let plan = Arc::new(ReadPlan {
        expected: AtomicUsize::new(usize::MAX),
        give_up: AtomicBool::new(false),
    });
    let (tx, rx): (SyncSender<()>, Receiver<()>) = sync_channel(window);
    for _ in 0..window {
        let _ = tx.try_send(());
    }
    let t0 = Instant::now();
    let reader = spawn_reader(writer.try_clone()?, base, t0, Arc::clone(&plan), Some(tx))?;
    let mut sent = 0;
    let mut send_err = None;
    while t0.elapsed() < duration {
        if rx.recv_timeout(DRAIN).is_err() {
            send_err = Some(io::Error::new(
                io::ErrorKind::TimedOut,
                "no response within the drain time",
            ));
            break;
        }
        if let Err(e) = writer.write_all(line(base + sent).as_bytes()) {
            send_err = Some(e);
            break;
        }
        sent += 1;
    }
    plan.expected.store(sent, Ordering::SeqCst);
    let responses = finish(reader, &plan, Instant::now() + DRAIN);
    match send_err {
        Some(e) => Err(e),
        None => Ok(ClosedLoop {
            responses,
            sent,
            duration_s: duration.as_secs_f64(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_lines_parse() {
        let mut r = Responses::with_len(3);
        r.record(
            b"{\"id\":11,\"ok\":true,\"cached\":false,\"report\":{\"total_wirelength\":12.5,\"nets\":[]}}\n",
            10,
            0.5,
        );
        r.record(
            b"{\"id\":12,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"detail\":\"x\"}}\n",
            10,
            0.6,
        );
        r.record(
            b"{\"id\":11,\"ok\":true,\"cached\":true,\"report\":{}}\n",
            10,
            0.7,
        );
        assert!(r.ok[1] && !r.ok[2]);
        assert_eq!(r.wirelength[1], 12.5);
        assert_eq!(r.digest[1], fnv(b"{\"total_wirelength\":12.5,\"nets\":[]}"));
        assert_eq!(r.unexpected, 1, "a second answer to id 11 is unexpected");
        assert_eq!(r.missing(3), 1);
        assert_eq!(r.failed(3), 2);
    }
}
