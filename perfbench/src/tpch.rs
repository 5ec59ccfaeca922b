//! `tpch-adaptive` and `tpch-brj`: the 20 TPC-H plans of
//! `joinstudy_tpch::queries` at SF 0.1 on one worker, with every join run
//! by one algorithm. An operation is one query; a pass runs all 20 in
//! order, and a run is made of whole passes.

use crate::layers::{self, no_server, workload_layers};
use crate::stats::{geomean, median};
use crate::{metric, setup_median, traced_arm, Opts, Outcome, MIN_TRACED_OPS};
use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_exec::metrics::take_source_rows;
use joinstudy_storage::table::Table;
use joinstudy_storage::types::{Date, Decimal};
use joinstudy_tpch::queries::{all_queries, QueryConfig, TpchQuery};
use joinstudy_tpch::{generate, TpchData};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const SF: f64 = 0.1;

/// Set-up is repeated this many times and the median reported.
const SETUP_REPS: usize = 3;

/// The multiset of row renderings, sorted: join algorithms may emit tied
/// rows in different orders, so results compare order-insensitively.
fn canonical(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            t.row(r)
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// Run one query, turning a panic (the query helpers panic on execution
/// errors) into `None`.
fn run_query(q: &TpchQuery, data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Option<Table> {
    catch_unwind(AssertUnwindSafe(|| (q.run)(data, cfg, engine))).ok()
}

/// Per-query record of the timed phase.
#[derive(Default)]
struct QueryRuns {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Canonical result of the first execution.
    first: Option<Vec<String>>,
    /// Executions that failed or whose result differed from the first.
    bad: u64,
    runs: u64,
}

pub fn run(opts: &Opts, algo: JoinAlgo) -> Outcome {
    let t = Instant::now();
    let data = generate(SF, opts.seed);
    let engine = Engine::new(1);
    let first_setup = t.elapsed().as_secs_f64();

    let queries = all_queries();
    let cfg = QueryConfig::new(algo);
    let mut runs: Vec<QueryRuns> = queries.iter().map(|_| QueryRuns::default()).collect();
    let mut pass_rates = Vec::new();
    let (mut covered, mut wall) = (0u64, 0u64);
    let (mut peak_bytes, mut spill_write, mut recursions, mut traced_ops) =
        (0usize, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for pass in 0.. {
        let arm = if opts.trace {
            traced_arm(pass)
        } else {
            Some(false)
        };
        let traced = arm == Some(true);
        engine.ctx.set_profiling(traced);
        engine.ctx.set_tracing(traced);
        let (mut rows, mut secs) = (0u64, 0.0);
        for (q, r) in queries.iter().zip(runs.iter_mut()) {
            take_source_rows();
            let t = Instant::now();
            let result = run_query(q, &data, &cfg, &engine);
            let s = t.elapsed().as_secs_f64();
            rows += take_source_rows();
            secs += s;
            r.runs += 1;
            if traced {
                traced_ops += 1;
                r.traced_ms.push(s * 1e3);
                if let Some(trace) = engine.take_trace() {
                    let (c, w) = layers::coverage(&trace);
                    covered += c;
                    wall += w;
                }
                if let Some(p) = engine.take_profile() {
                    peak_bytes = peak_bytes.max(p.peak_bytes);
                }
                spill_write += engine.ctx.spill_write_bytes();
                recursions = recursions.max(engine.ctx.spill_max_depth());
            } else if arm.is_some() {
                r.untraced_ms.push(s * 1e3);
            }
            match result.map(|t| canonical(&t)) {
                None => r.bad += 1,
                Some(c) => match &r.first {
                    None => r.first = Some(c),
                    Some(first) => r.bad += u64::from(*first != c),
                },
            }
        }
        if arm == Some(false) {
            pass_rates.push(rows as f64 / secs);
        }
        if start.elapsed().as_secs_f64() >= opts.seconds
            && (!opts.trace || pass + 1 >= MIN_TRACED_OPS)
        {
            break;
        }
    }
    engine.ctx.set_profiling(false);
    engine.ctx.set_tracing(false);
    let peak_rss = crate::host::peak_rss_mib();

    let mut notes = Vec::new();
    let mut correct = true;
    let mut failed = 0u64;
    let check = check_results(&data, &queries, &runs, algo, &engine, &mut notes);
    for (r, ok) in runs.iter().zip(&check) {
        if !ok {
            correct = false;
            failed += r.runs;
        } else if r.bad > 0 {
            correct = false;
            failed += r.bad;
        }
    }
    let attempted = runs.iter().map(|r| r.runs).sum();

    let medians: Vec<f64> = runs.iter().map(|r| median(&r.untraced_ms)).collect();
    let metrics = if opts.trace {
        let traced: Vec<f64> = runs
            .iter()
            .map(|r| median(&r.traced_ms) / median(&r.untraced_ms))
            .collect();
        let mut m = layers::suite(&data, opts.seed, 1 << 20, &opts.work_dir);
        m.extend(workload_layers(
            1.0 - covered as f64 / wall.max(1) as f64,
            geomean(&traced) - 1.0,
            peak_bytes,
            spill_write / traced_ops.max(1),
            recursions,
        ));
        m.extend(no_server());
        m
    } else {
        vec![
            metric(
                "setup_s",
                setup_median(first_setup, SETUP_REPS, || setup_again(opts.seed)),
                "s",
            ),
            metric("p50_ms", median(&medians), "ms"),
            metric("geomean_ms", geomean(&medians), "ms"),
            metric("tuples_per_s", median(&pass_rates), "tuples/s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
        ]
    };
    for (q, m) in queries.iter().zip(&medians) {
        notes.push(format!("Q{:<2} median {m:>9.3} ms", q.id));
    }
    Outcome {
        attempted,
        failed,
        correct,
        metrics,
        notes,
    }
}

/// One more timed set-up, torn down at once.
fn setup_again(seed: u64) -> f64 {
    let t = Instant::now();
    let data = generate(SF, seed);
    let engine = Engine::new(1);
    let secs = t.elapsed().as_secs_f64();
    drop((data, engine));
    secs
}

/// Answer checks, run after the timed phase: Q4, Q12 and Q14 against plain
/// loops over the generated columns, and every query against the other
/// join algorithms, which must give the same answer. Returns one verdict
/// per query.
fn check_results(
    data: &TpchData,
    queries: &[TpchQuery],
    runs: &[QueryRuns],
    algo: JoinAlgo,
    engine: &Engine,
    notes: &mut Vec<String>,
) -> Vec<bool> {
    let independent: BTreeMap<u32, Vec<String>> =
        [(4, q4(data)), (12, q12(data)), (14, q14(data))].into();
    let others: Vec<JoinAlgo> = [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj]
        .into_iter()
        .filter(|&a| a != algo)
        .collect();
    queries
        .iter()
        .zip(runs)
        .map(|(q, r)| {
            let Some(got) = &r.first else {
                notes.push(format!("check Q{}: no execution succeeded", q.id));
                return false;
            };
            let mut ok = true;
            if let Some(want) = independent.get(&q.id) {
                if want != got {
                    notes.push(format!(
                        "check Q{}: differs from the plain-loop answer",
                        q.id
                    ));
                    ok = false;
                }
            }
            for &other in &others {
                let same = run_query(q, data, &QueryConfig::new(other), engine)
                    .is_some_and(|t| canonical(&t) == *got);
                if !same {
                    notes.push(format!(
                        "check Q{}: {} differs from {}",
                        q.id,
                        algo.name(),
                        other.name()
                    ));
                    ok = false;
                }
            }
            ok
        })
        .collect()
}

/// Q4 by plain loops: orders of 1993-Q3 with at least one lineitem
/// committed before it was received, counted per priority.
fn q4(data: &TpchData) -> Vec<String> {
    let (lo, hi) = (Date::from_ymd(1993, 7, 1), Date::from_ymd(1993, 10, 1));
    let l = &data.lineitem;
    let (commit, receipt) = (
        l.column_by_name("l_commitdate").as_i32(),
        l.column_by_name("l_receiptdate").as_i32(),
    );
    let late: std::collections::HashSet<i64> = l
        .column_by_name("l_orderkey")
        .as_i64()
        .iter()
        .enumerate()
        .filter(|&(i, _)| commit[i] < receipt[i])
        .map(|(_, &k)| k)
        .collect();
    let o = &data.orders;
    let (key, date, prio) = (
        o.column_by_name("o_orderkey").as_i64(),
        o.column_by_name("o_orderdate").as_i32(),
        o.column_by_name("o_orderpriority").as_str(),
    );
    let mut counts: BTreeMap<String, i64> = BTreeMap::new();
    for i in 0..o.num_rows() {
        if date[i] >= lo.0 && date[i] < hi.0 && late.contains(&key[i]) {
            *counts.entry(prio.get(i).to_string()).or_default() += 1;
        }
    }
    counts.iter().map(|(p, n)| format!("{p}|{n}")).collect()
}

/// Q12 by plain loops: 1994 MAIL/SHIP lineitems received late but shipped
/// on time, split by their order's priority.
fn q12(data: &TpchData) -> Vec<String> {
    let (lo, hi) = (Date::from_ymd(1994, 1, 1).0, Date::from_ymd(1995, 1, 1).0);
    let o = &data.orders;
    let prio = o.column_by_name("o_orderpriority").as_str();
    let high: std::collections::HashMap<i64, bool> = o
        .column_by_name("o_orderkey")
        .as_i64()
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, matches!(prio.get(i), "1-URGENT" | "2-HIGH")))
        .collect();
    let l = &data.lineitem;
    let (key, mode) = (
        l.column_by_name("l_orderkey").as_i64(),
        l.column_by_name("l_shipmode").as_str(),
    );
    let (ship, commit, receipt) = (
        l.column_by_name("l_shipdate").as_i32(),
        l.column_by_name("l_commitdate").as_i32(),
        l.column_by_name("l_receiptdate").as_i32(),
    );
    let mut counts: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    for i in 0..l.num_rows() {
        let m = mode.get(i);
        if (m == "MAIL" || m == "SHIP")
            && commit[i] < receipt[i]
            && ship[i] < commit[i]
            && receipt[i] >= lo
            && receipt[i] < hi
        {
            let e = counts.entry(m.to_string()).or_default();
            if high[&key[i]] {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    counts
        .iter()
        .map(|(m, (h, l))| format!("{m}|{h}|{l}"))
        .collect()
}

/// Q14 by plain loops: the promotional share of September 1995 revenue,
/// in the engine's truncating decimal arithmetic.
fn q14(data: &TpchData) -> Vec<String> {
    let (lo, hi) = (Date::from_ymd(1995, 9, 1).0, Date::from_ymd(1995, 10, 1).0);
    let p = &data.part;
    let ptype = p.column_by_name("p_type").as_str();
    let promo: std::collections::HashMap<i64, bool> = p
        .column_by_name("p_partkey")
        .as_i64()
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, ptype.get(i).starts_with("PROMO")))
        .collect();
    let l = &data.lineitem;
    let (part, ship) = (
        l.column_by_name("l_partkey").as_i64(),
        l.column_by_name("l_shipdate").as_i32(),
    );
    let (price, disc) = (
        l.column_by_name("l_extendedprice").as_i64(),
        l.column_by_name("l_discount").as_i64(),
    );
    let (mut promo_rev, mut total) = (Decimal(0), Decimal(0));
    for i in 0..l.num_rows() {
        if ship[i] >= lo && ship[i] < hi {
            let rev = Decimal(price[i]).mul(Decimal::from_int(1) - Decimal(disc[i]));
            total = total + rev;
            if promo[&part[i]] {
                promo_rev = promo_rev + rev;
            }
        }
    }
    vec![Decimal::from_int(100).mul(promo_rev).div(total).to_string()]
}
