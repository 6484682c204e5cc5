//! Driving the real daemon: spawn it in process, talk to it over loopback
//! TCP like `etlopt-client`, run the closed loop, and check every body
//! against the one-shot reference.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use etlopt_server::{run_request, spawn, Op, Registry, Request, Server, ServerConfig};

use crate::workload::{COLD_ROWS, WORKERS};

/// The daemon's configuration: two workers, and a row ceiling raised to
/// the `execute-cold` volume.
pub fn config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_rows: COLD_ROWS,
        ..ServerConfig::default()
    }
}

/// Spawn the daemon on an ephemeral loopback port.
pub fn start() -> Result<Server, String> {
    spawn(config()).map_err(|e| format!("spawn daemon: {e}"))
}

/// Drain the daemon and check that it finished every job it accepted.
pub fn stop(server: Server) -> Result<(), String> {
    server.shutdown();
    let report = server.join();
    if report.accepted == report.completed {
        Ok(())
    } else {
        Err(format!(
            "daemon dropped jobs: accepted {} completed {}",
            report.accepted, report.completed
        ))
    }
}

/// One persistent connection speaking the line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to the daemon.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Send one request line (no trailing newline) and return the reply
    /// line.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One request answered in the timed window.
#[derive(Debug)]
pub struct Exchange {
    /// Index into the client's timed stream.
    pub index: usize,
    /// Send-to-reply time, in milliseconds.
    pub latency_ms: f64,
    /// The raw reply line.
    pub reply: String,
}

/// Send every line on `client` in order, returning the replies.
pub fn send_all(client: &mut Client, lines: &[String]) -> Result<Vec<String>, String> {
    lines.iter().map(|l| client.roundtrip(l)).collect()
}

/// Floor on the requests a timed window must answer, so that at least
/// ten samples lie beyond its p90.
pub const MIN_REQUESTS: usize = 100;

/// The closed loop: each client sends its next line as soon as the
/// previous reply arrives, from the window's start until `seconds` have
/// passed and the window holds at least [`MIN_REQUESTS`] replies (capped
/// at three more windows), or its stream runs out. Returns per-client
/// exchanges and the window's length in seconds.
pub fn closed_loop(
    clients: &mut [Client],
    lines: &[Vec<String>],
    seconds: u64,
) -> Result<(Vec<Vec<Exchange>>, f64), String> {
    let done = AtomicUsize::new(0);
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lines)
            .map(|(client, stream)| {
                let done = &done;
                scope.spawn(move || -> Result<Vec<Exchange>, String> {
                    let mut out = Vec::with_capacity(stream.len());
                    for (index, line) in stream.iter().enumerate() {
                        let elapsed = start.elapsed();
                        let short = done.load(Ordering::Relaxed) < MIN_REQUESTS;
                        if elapsed >= window && !(short && elapsed < window * 4) {
                            break;
                        }
                        let sent = Instant::now();
                        let reply = client.roundtrip(line)?;
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        done.fetch_add(1, Ordering::Relaxed);
                        out.push(Exchange {
                            index,
                            latency_ms,
                            reply,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((per_client, start.elapsed().as_secs_f64()))
}

/// The reference body for a request, keyed so that requests whose bodies
/// cannot differ share one computation: id and tenant never reach an
/// optimize or execute body.
fn dedupe_key(req: &Request) -> String {
    let mut r = req.clone();
    r.id.clear();
    r.tenant.clear();
    r.render()
}

/// Warm adaptive is stateful by design: its body depends on the tenant
/// calibration earlier adaptive requests left behind.
fn stateful(req: &Request) -> bool {
    req.op == Op::Adaptive && req.warm
}

/// The one-shot reference bodies for `sent`: per client, the requests the
/// daemon answered, in the order that client sent them.
///
/// Stateless requests run through `run_request` on a fresh [`Registry`]
/// each, which is exactly the `etlopt-client oneshot` contract. Warm
/// adaptive requests are replayed per client, in send order, through
/// `run_request` on one fresh registry per client: every tenant belongs
/// to one client, so that registry sees each tenant's calibration history
/// exactly as the daemon did. Work is spread over `threads` threads.
pub fn reference_bodies(sent: &[Vec<&Request>], threads: usize) -> Vec<Vec<String>> {
    enum Task<'a> {
        Single(&'a Request),
        Chain(usize, Vec<&'a Request>),
    }
    let mut tasks: Vec<Task> = Vec::new();
    let mut seen = HashMap::new();
    for (c, stream) in sent.iter().enumerate() {
        let chain: Vec<&Request> = stream.iter().copied().filter(|r| stateful(r)).collect();
        if !chain.is_empty() {
            tasks.push(Task::Chain(c, chain));
        }
        for r in stream.iter().filter(|r| !stateful(r)) {
            seen.entry(dedupe_key(r)).or_insert_with(|| {
                tasks.push(Task::Single(r));
            });
        }
    }
    let next = AtomicUsize::new(0);
    let singles = Mutex::new(HashMap::new());
    let chains = Mutex::new(vec![Vec::new(); sent.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                match task {
                    Task::Single(r) => {
                        let body = run_request(&Registry::new(config()), r).body;
                        singles
                            .lock()
                            .expect("reference map")
                            .insert(dedupe_key(r), body);
                    }
                    Task::Chain(c, reqs) => {
                        let reg = Registry::new(config());
                        let bodies = reqs.iter().map(|r| run_request(&reg, r).body).collect();
                        chains.lock().expect("reference chains")[*c] = bodies;
                    }
                }
            });
        }
    });
    let singles = singles.into_inner().expect("reference map");
    let chains = chains.into_inner().expect("reference chains");
    sent.iter()
        .zip(chains)
        .map(|(stream, chain)| {
            let mut chain = chain.into_iter();
            stream
                .iter()
                .map(|r| match stateful(r) {
                    true => chain.next().unwrap_or_default(),
                    false => singles.get(&dedupe_key(r)).cloned().unwrap_or_default(),
                })
                .collect()
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`) in MiB, daemon included.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RequestSet, Workload};
    use etlopt_server::Response;

    #[test]
    fn daemon_bodies_match_the_reference_over_tcp() {
        let set = RequestSet::generate(Workload::SharedMix, 4, 1);
        let server = start().unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reqs: Vec<&Request> = set.warmup[0]
            .iter()
            .take(3)
            .chain(set.timed[0].iter().take(5))
            .collect();
        let lines: Vec<String> = reqs.iter().map(|r| r.render()).collect();
        let replies = send_all(&mut client, &lines).unwrap();
        drop(client);
        stop(server).unwrap();
        let refs = reference_bodies(std::slice::from_ref(&reqs), 2);
        for (reply, expected) in replies.iter().zip(&refs[0]) {
            let resp = Response::parse(reply).unwrap();
            assert_eq!(&resp.body, expected);
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
