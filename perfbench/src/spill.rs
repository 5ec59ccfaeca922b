//! `spill-stream`: streamed `orders ⋈ lineitem → (count, sum(price))`
//! through the hybrid hash join on one worker, under a memory budget far
//! below the join's working set. Both inputs come straight from the
//! streaming TPC-H generator; nothing is materialized. An operation is one
//! whole join.

use crate::layers::{self, no_server, workload_layers};
use crate::stats::median;
use crate::{metric, setup_median, traced_arm, Opts, Outcome, MIN_TRACED_OPS};
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::metrics::take_source_rows;
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_storage::types::Value;
use joinstudy_tpch::{StreamGen, StreamScan, TpchTable};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Scale factor of the stream: 150 k orders, about 600 k lineitems.
const SF: f64 = 0.1;

/// The join's memory budget.
const BUDGET: usize = 4 << 20;

/// Set-up is repeated this many times and the median reported.
const SETUP_REPS: usize = 3;

/// `orders ⋈ lineitem` over streaming leaves, orders on the build side.
fn stream_plan(gen: &Arc<StreamGen>) -> Plan {
    let leaf = |table, cols: &[&str]| {
        let scan = StreamScan::by_names(Arc::clone(gen), table, cols);
        let (schema, est, label) = (scan.output_schema(), scan.est_rows(), scan.label());
        Plan::stream_source(Arc::new(scan), schema, est, label)
    };
    let build = leaf(TpchTable::Orders, &["o_orderkey"]);
    let probe = leaf(TpchTable::Lineitem, &["l_orderkey", "l_extendedprice"]);
    let joined = build.join(probe, JoinAlgo::Hybrid, JoinType::Inner, &[0], &[0]);
    let price = joined.schema().index_of("l_extendedprice");
    joined.aggregate(
        &[],
        vec![
            AggSpec::new(AggFunc::CountStar, 0, "cnt"),
            AggSpec::new(AggFunc::Sum, price, "revenue"),
        ],
    )
}

/// The stream, an engine with the budget and spill directory set, and
/// the plan, after one untimed warm-up join; plus the seconds that took.
/// Without the warm-up join, set-up is tens of microseconds of thread
/// start and `mkdir`, whose median moved by a fifth between two sets of
/// runs of the same code.
fn setup(seed: u64, spill_dir: &Path) -> (Arc<StreamGen>, Engine, Plan, f64) {
    std::fs::remove_dir_all(spill_dir).ok();
    let t = Instant::now();
    let gen = Arc::new(StreamGen::new(SF, seed));
    let engine = Engine::new(1);
    engine.ctx.set_memory_budget(Some(BUDGET));
    std::fs::create_dir_all(spill_dir).expect("create spill directory");
    engine.ctx.set_spill_dir(Some(spill_dir.to_path_buf()));
    let plan = stream_plan(&gen);
    engine.execute(&plan).expect("warm-up join");
    (gen, engine, plan, t.elapsed().as_secs_f64())
}

/// What one join returned and what it cost.
struct JoinRun {
    /// `(cnt, revenue in cents)`, `None` if the join failed.
    answer: Option<(i64, i64)>,
    peak_bytes: usize,
    spill_write: u64,
}

pub fn run(opts: &Opts) -> Outcome {
    let spill_dir = opts.work_dir.join("spill");
    let (gen, engine, plan, first_setup) = setup(opts.seed, &spill_dir);

    let mut runs = Vec::new();
    let (mut untraced_ms, mut traced_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut covered, mut wall, mut recursions) = (0u64, 0u64, 0u64);
    let (mut traced_spill, mut traced_peak) = (0u64, 0usize);
    let start = Instant::now();
    for op in 0.. {
        let arm = if opts.trace {
            traced_arm(op)
        } else {
            Some(false)
        };
        let traced = arm == Some(true);
        engine.ctx.set_profiling(traced);
        engine.ctx.set_tracing(traced);
        take_source_rows();
        let t = Instant::now();
        let result = engine.execute(&plan);
        let s = t.elapsed().as_secs_f64();
        let rows = take_source_rows();
        let answer = result.ok().and_then(|t| {
            match (
                t.column_by_name("cnt").value(0),
                t.column_by_name("revenue").value(0),
            ) {
                (Value::Int64(c), Value::Decimal(r)) => Some((c, r.0)),
                _ => None,
            }
        });
        let run = JoinRun {
            answer,
            peak_bytes: engine.ctx.high_water(),
            spill_write: engine.ctx.spill_write_bytes(),
        };
        if traced {
            traced_ms.push(s * 1e3);
            if let Some(trace) = engine.take_trace() {
                let (c, w) = layers::coverage(&trace);
                covered += c;
                wall += w;
            }
            engine.take_profile();
            traced_spill += run.spill_write;
            traced_peak = traced_peak.max(run.peak_bytes);
            recursions = recursions.max(engine.ctx.spill_max_depth());
        } else if arm.is_some() {
            untraced_ms.push(s * 1e3);
            rates.push(rows as f64 / s);
        }
        runs.push(run);
        if start.elapsed().as_secs_f64() >= opts.seconds
            && (!opts.trace || op + 1 >= MIN_TRACED_OPS)
        {
            break;
        }
    }
    engine.ctx.set_profiling(false);
    engine.ctx.set_tracing(false);
    let peak_rss = crate::host::peak_rss_mib();

    // Answer checks. Every lineitem has exactly one order, so the join
    // keeps every lineitem: the count and the revenue must equal the
    // lineitem stream's own row count and exact price sum.
    let (mut want_cnt, mut want_rev) = (0i64, 0i64);
    for chunk in 0..gen.chunk_count(TpchTable::Lineitem) {
        let t = gen.chunk(TpchTable::Lineitem, chunk);
        want_cnt += t.num_rows() as i64;
        want_rev += t
            .column_by_name("l_extendedprice")
            .as_i64()
            .iter()
            .sum::<i64>();
    }
    let mut notes = Vec::new();
    let mut failed = 0u64;
    for (i, r) in runs.iter().enumerate() {
        let mut why = Vec::new();
        if r.answer != Some((want_cnt, want_rev)) {
            why.push(format!(
                "answer {:?}, want ({want_cnt}, {want_rev})",
                r.answer
            ));
        }
        if r.peak_bytes > BUDGET {
            why.push(format!(
                "accounted peak {} B over the {BUDGET} B budget",
                r.peak_bytes
            ));
        }
        if r.spill_write == 0 {
            why.push("spilled nothing".into());
        }
        if !why.is_empty() {
            failed += 1;
            notes.push(format!("check join {i}: {}", why.join("; ")));
        }
    }
    let leftovers = std::fs::read_dir(&spill_dir).map_or(0, |d| d.count());
    if leftovers > 0 {
        notes.push(format!(
            "check: {leftovers} spill entries left after the joins"
        ));
    }
    let correct = failed == 0 && leftovers == 0;
    notes.push(format!(
        "stream SF {SF}: {want_cnt} lineitems joined per operation, budget {} MiB",
        BUDGET >> 20
    ));

    let metrics = if opts.trace {
        let n = traced_ms.len().max(1) as u64;
        let data = joinstudy_tpch::generate(crate::tpch::SF, opts.seed);
        let mut m = layers::suite(&data, opts.seed, 1 << 20, &opts.work_dir);
        m.extend(workload_layers(
            1.0 - covered as f64 / wall.max(1) as f64,
            median(&traced_ms) / median(&untraced_ms) - 1.0,
            traced_peak,
            traced_spill / n,
            recursions,
        ));
        m.extend(no_server());
        m
    } else {
        let p50 = median(&untraced_ms);
        vec![
            metric(
                "setup_s",
                setup_median(first_setup, SETUP_REPS, || setup(opts.seed, &spill_dir).3),
                "s",
            ),
            metric("p50_ms", p50, "ms"),
            metric("geomean_ms", p50, "ms"),
            metric("tuples_per_s", median(&rates), "tuples/s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
        ]
    };
    Outcome {
        attempted: runs.len() as u64,
        failed,
        correct,
        metrics,
        notes,
    }
}
