//! `serve-mix`: an in-process `SqlServer` over TPC-H SF 0.05 with a
//! one-worker pool, admission control and the ASH sampler, driven by one
//! closed-loop TCP connection that sends the six `bench_serve` statements
//! in turn. An operation is one statement round trip; a round is the six
//! statements, and every run makes whole rounds.
//!
//! The client polls its socket instead of blocking on it. A blocked client
//! leaves a vCPU idle between statements, and on a shared virtual host
//! waking an idle vCPU takes a time that swings with the neighbours' load;
//! with a blocking client that swing moved `p50_ms` by up to a factor of
//! two between runs of the same code.

use crate::layers::{self, workload_layers};
use crate::stats::{geomean, median, tail_percentile, window_rates};
use crate::{metric, setup_median, Metric, Opts, Outcome};
use joinstudy_exec::metrics::take_source_rows;
use joinstudy_sql::server::{encode_table, Client, ServerHandle};
use joinstudy_sql::{ServerConfig, Session, SqlServer};
use joinstudy_storage::types::Date;
use joinstudy_tpch::{generate, TpchData};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SF: f64 = 0.05;

/// Workers in the server's shared pool.
const WORKERS: usize = 1;

pub const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

/// The `bench_serve` statement mix.
pub const MIX: [&str; 6] = [
    "SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey",
    "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_shipdate > DATE '1995-03-15'",
    "SELECT count(*) FROM supplier, nation WHERE s_nationkey = n_nationkey",
    "SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM customer, orders, lineitem \
     WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
     AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
     GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 5",
    "SELECT n_name, count(*) FROM customer, nation WHERE c_nationkey = n_nationkey \
     GROUP BY n_name ORDER BY n_name",
];

/// Set-up is repeated this many times and the median reported.
const SETUP_REPS: usize = 3;

/// In the traced run, the observer polls the server's telemetry for one
/// window, rests for the next, and so on.
const WINDOW: Duration = Duration::from_millis(500);

/// A response that has not ended after this long is an error.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A line-protocol client that polls its non-blocking socket, yielding the
/// CPU between polls, until the response's `.` line has arrived.
struct PollClient {
    stream: TcpStream,
}

impl PollClient {
    fn connect(addr: SocketAddr) -> std::io::Result<PollClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(PollClient { stream })
    }

    /// Send one statement and return its framed response, byte for byte
    /// what `Client::query` returns.
    fn query(&mut self, stmt: &str) -> std::io::Result<String> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        let wait = || {
            if Instant::now() > deadline {
                return Err(std::io::Error::from(ErrorKind::TimedOut));
            }
            std::thread::yield_now();
            Ok(())
        };
        let msg = format!("{stmt}\n");
        let mut sent = 0;
        while sent < msg.len() {
            match self.stream.write(&msg.as_bytes()[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait()?,
                Err(e) => return Err(e),
            }
        }
        let mut response = Vec::new();
        let mut chunk = [0u8; 4096];
        while !(response.ends_with(b"\n.\n") || response == b".\n") {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => response.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait()?,
                Err(e) => return Err(e),
            }
        }
        String::from_utf8(response).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
    }
}

/// What the connection saw.
struct ConnLog {
    /// `(statement, latency ms, observed)` per round trip, where
    /// `observed` marks round trips sent while the observer polled.
    latencies: Vec<(usize, f64, bool)>,
    /// Distinct responses per statement, with how often each came back.
    responses: Vec<HashMap<String, u64>>,
}

/// The server, its data and the connected client.
struct Served {
    data: TpchData,
    handle: ServerHandle,
    client: PollClient,
}

fn start(seed: u64) -> Served {
    let data = generate(SF, seed);
    let mut server = SqlServer::new(ServerConfig {
        threads: WORKERS,
        ..ServerConfig::default()
    });
    for name in TABLES {
        server.register(name, Arc::clone(data.table(name)));
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let handle = Arc::new(server).spawn(listener).expect("start the server");
    let client = PollClient::connect(handle.addr()).expect("connect");
    Served {
        data,
        handle,
        client,
    }
}

fn stop(handle: ServerHandle, mut client: PollClient) {
    client.query(".quit").ok();
    handle.stop();
}

/// One more timed set-up, torn down at once.
fn setup_again(seed: u64) -> f64 {
    let t = Instant::now();
    let served = start(seed);
    let secs = t.elapsed().as_secs_f64();
    stop(served.handle, served.client);
    secs
}

/// Rows of a framed response (below the `OK` and column header lines).
fn body_rows(response: &str) -> Vec<Vec<String>> {
    response
        .lines()
        .skip(2)
        .take_while(|l| *l != ".")
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect()
}

pub fn run(opts: &Opts) -> Outcome {
    let t = Instant::now();
    let Served {
        data,
        handle,
        mut client,
    } = start(opts.seed);
    let first_setup = t.elapsed().as_secs_f64();
    let addr = handle.addr();

    // Timed phase, on this thread. The source-row counter is read at the
    // end of every round. In the traced run `observing` is set in every
    // other window, and an observer connection polls the server's
    // telemetry while it is set.
    let done = AtomicBool::new(false);
    let observing = AtomicBool::new(false);
    let mut log = ConnLog {
        latencies: Vec::new(),
        responses: vec![HashMap::new(); MIX.len()],
    };
    let mut samples = vec![(0.0, 0)];
    std::thread::scope(|scope| {
        let observer = opts.trace.then(|| {
            let (done, observing) = (&done, &observing);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect observer");
                while !done.load(Ordering::Acquire) {
                    if observing.load(Ordering::Relaxed) {
                        client.query("METRICS").ok();
                        client.query("SELECT wait_state FROM jsys.ash").ok();
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                client.query(".quit").ok();
            })
        });
        take_source_rows();
        let t0 = Instant::now();
        let mut rows = 0u64;
        while t0.elapsed().as_secs_f64() < opts.seconds {
            for (stmt, sql) in MIX.iter().enumerate() {
                let observed =
                    opts.trace && (t0.elapsed().as_millis() / WINDOW.as_millis()) % 2 == 1;
                observing.store(observed, Ordering::Relaxed);
                let t = Instant::now();
                let response = client
                    .query(sql)
                    .unwrap_or_else(|e| format!("ERR {e}\n.\n"));
                log.latencies
                    .push((stmt, t.elapsed().as_secs_f64() * 1e3, observed));
                *log.responses[stmt].entry(response).or_default() += 1;
            }
            rows += take_source_rows();
            samples.push((t0.elapsed().as_secs_f64(), rows));
        }
        done.store(true, Ordering::Release);
        if let Some(o) = observer {
            o.join().expect("observer thread");
        }
    });

    // Per-layer figures the server keeps, read after the load.
    let layer_metrics = opts.trace.then(|| server_layers(addr, &log));
    stop(handle, client);
    let peak_rss = crate::host::peak_rss_mib();

    let (mut notes, failed, correct, peak_bytes) = check(&data, &log);
    let attempted = log.latencies.len() as u64;

    let all: Vec<f64> = log.latencies.iter().map(|x| x.1).collect();
    match tail_percentile(&all, 0.99) {
        Some(p99) => notes.push(format!(
            "reference (not gated): p99 {p99:.3} ms over {} statements",
            all.len()
        )),
        None => notes.push(format!(
            "reference: too few statements ({}) for a p99",
            all.len()
        )),
    }
    let per_stmt = |observed: bool| -> Vec<f64> {
        (0..MIX.len())
            .map(|s| {
                let v: Vec<f64> = log
                    .latencies
                    .iter()
                    .filter(|x| x.0 == s && (x.2 == observed || !opts.trace))
                    .map(|x| x.1)
                    .collect();
                median(&v)
            })
            .collect()
    };
    let metrics = if let Some(server) = layer_metrics {
        let overhead: Vec<f64> = per_stmt(true)
            .iter()
            .zip(per_stmt(false))
            .map(|(a, b)| a / b)
            .collect();
        let mut m = layers::suite(&data, opts.seed, 1 << 20, &opts.work_dir);
        let (residual, spill_write, admission) = server;
        m.extend(workload_layers(
            residual,
            geomean(&overhead) - 1.0,
            peak_bytes,
            spill_write,
            0,
        ));
        m.extend(admission);
        m
    } else {
        vec![
            metric(
                "setup_s",
                setup_median(first_setup, SETUP_REPS, || setup_again(opts.seed)),
                "s",
            ),
            metric("p50_ms", median(&per_stmt(false)), "ms"),
            metric("geomean_ms", geomean(&per_stmt(false)), "ms"),
            metric("tuples_per_s", median(&window_rates(&samples)), "tuples/s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
        ]
    };
    Outcome {
        attempted,
        failed,
        correct,
        metrics,
        notes,
    }
}

/// Server-side figures from `jsys.*`: the closure residual (client latency
/// the server's own statement time does not explain), spill bytes per
/// statement, and the admission and ASH wait metrics.
fn server_layers(addr: SocketAddr, log: &ConnLog) -> (f64, u64, Vec<Metric>) {
    let mut client = Client::connect(addr).expect("connect");
    let stats = client
        .query("SELECT fingerprint, calls, total_ns, admission_wait_ns, spill_bytes FROM jsys.statements")
        .expect("jsys.statements");
    let (mut calls, mut server_ns, mut wait_ns, mut spill) = (0u64, 0u64, 0u64, 0u64);
    for row in body_rows(&stats) {
        if row[0].contains("jsys") || row[0].starts_with("METRICS") {
            continue;
        }
        let n = |i: usize| row[i].parse::<u64>().unwrap_or(0);
        calls += n(1);
        server_ns += n(2);
        wait_ns += n(3);
        spill += n(4);
    }
    let ash = client
        .query("SELECT wait_state FROM jsys.ash")
        .expect("jsys.ash");
    let states: Vec<String> = body_rows(&ash)
        .into_iter()
        .map(|mut r| r.swap_remove(0))
        .collect();
    client.query(".quit").ok();
    let share = |pred: &dyn Fn(&str) -> bool| {
        states.iter().filter(|s| pred(s)).count() as f64 / states.len().max(1) as f64
    };
    let client_ns: f64 = log.latencies.iter().map(|x| x.1 * 1e6).sum();
    (
        1.0 - server_ns as f64 / client_ns.max(1.0),
        spill / calls.max(1),
        vec![
            metric(
                "admission.wait_ms",
                wait_ns as f64 / calls.max(1) as f64 / 1e6,
                "ms",
            ),
            metric("ash.pool_wait_share", share(&|s| s == "pool_wait"), "share"),
            metric("ash.cpu_share", share(&|s| s.starts_with("cpu_")), "share"),
        ],
    )
}

/// Answer checks, after the timed phase. Every response must be
/// byte-equal to a serial `Session` run of the same statement, and the
/// serial answers of the statements a column scan can answer must match
/// that scan. Returns notes, failed round trips, the verdict and the
/// accounted peak memory of the serial run.
fn check(data: &TpchData, log: &ConnLog) -> (Vec<String>, u64, bool, usize) {
    let mut session = Session::new(1);
    for name in TABLES {
        session.register(name, Arc::clone(data.table(name)));
    }
    let mut notes = Vec::new();
    let mut peak = 0usize;
    let reference: Vec<String> = MIX
        .iter()
        .map(|sql| {
            let r = session
                .execute(sql)
                .map_or_else(|e| format!("ERR {e}"), |t| encode_table(&t));
            peak = peak.max(session.context().high_water());
            r
        })
        .collect();
    let mut correct = true;
    for (i, (want, got)) in reference.iter().zip(scans(data)).enumerate() {
        if let Some(got) = got {
            if body_rows(want) != got {
                notes.push(format!(
                    "check statement {i}: serial answer differs from a column scan"
                ));
                correct = false;
            }
        }
    }
    let mut failed = 0u64;
    for (i, responses) in log.responses.iter().enumerate() {
        for (response, n) in responses {
            if *response != reference[i] {
                failed += n;
                let first = response.lines().next().unwrap_or("");
                notes.push(format!(
                    "check statement {i}: {n} responses differ from the serial run ({first})"
                ));
            }
        }
    }
    (notes, failed, correct && failed == 0, peak)
}

/// The answers of statements 0–3 and 5 computed by direct column scans
/// (every lineitem has an order and every supplier a nation, so the FK
/// join counts are the child row counts); `None` for statement 4.
fn scans(data: &TpchData) -> Vec<Option<Vec<Vec<String>>>> {
    let counts = |keys: Vec<String>| -> Vec<Vec<String>> {
        let mut m: BTreeMap<String, i64> = BTreeMap::new();
        for k in keys {
            *m.entry(k).or_default() += 1;
        }
        m.into_iter().map(|(k, n)| vec![k, n.to_string()]).collect()
    };
    let prio = data.orders.column_by_name("o_orderpriority").as_str();
    let by_priority = counts(
        (0..data.orders.num_rows())
            .map(|i| prio.get(i).to_string())
            .collect(),
    );

    let cutoff = Date::from_ymd(1995, 3, 15).0;
    let ship = data.lineitem.column_by_name("l_shipdate").as_i32();
    let price = data.lineitem.column_by_name("l_extendedprice").as_i64();
    let (mut n, mut sum) = (0i64, 0i64);
    for (s, p) in ship.iter().zip(price) {
        if *s > cutoff {
            n += 1;
            sum += p;
        }
    }
    let filtered = vec![vec![
        n.to_string(),
        joinstudy_storage::types::Decimal(sum).to_string(),
    ]];

    let names: HashMap<i64, String> = {
        let keys = data.nation.column_by_name("n_nationkey").as_i64();
        let names = data.nation.column_by_name("n_name").as_str();
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, names.get(i).to_string()))
            .collect()
    };
    let by_nation = counts(
        data.customer
            .column_by_name("c_nationkey")
            .as_i64()
            .iter()
            .map(|k| names[k].clone())
            .collect(),
    );
    let single = |n: usize| Some(vec![vec![n.to_string()]]);
    vec![
        Some(by_priority),
        single(data.lineitem.num_rows()),
        Some(filtered),
        single(data.supplier.num_rows()),
        None,
        Some(by_nation),
    ]
}
