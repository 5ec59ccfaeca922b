//! Per-layer measurements for the traced runs.
//!
//! Nothing here instruments the program. Each layer is measured from the
//! outside, on the workload's own tables, in one of two ways:
//!
//! * by timing calls into the layer's public functions (`simd::hash_i64`,
//!   `simd::hist_chunk`, `BlockedBloom::probe_sel`, `SpillWriter`,
//!   `SpillReader`, `tpch::generate`, `Session::explain`);
//! * by running one pipeline of the layer's public operators (the BHJ
//!   build sink and probe operator, the radix partition sink and join
//!   source, the hybrid hash join's partition sink and join source, the
//!   scan, aggregate and sort operators) on a one-worker executor with the
//!   engine's own profiler slots switched on, and reading the busy time of
//!   the one slot that is the layer.
//!
//! Every figure is the median of [`REPS`] repetitions, in nanoseconds per
//! tuple (or key, row or byte) the layer consumed.

use crate::metric;
use crate::stats::median;
use crate::Metric;
use joinstudy_core::bhj::{BhjBuildSink, BhjProbeOp};
use joinstudy_core::bloom::BlockedBloom;
use joinstudy_core::hybrid::{HybridJoinSource, PartitionSpillSink, SpillConfig};
use joinstudy_core::radix::{partition_of, PartitionSink, PhaseSet};
use joinstudy_core::rj::RadixJoinSource;
use joinstudy_core::row::RowLayout;
use joinstudy_core::spill::{SpillDir, SpillReader, SpillWriter};
use joinstudy_core::{JoinType, RadixConfig};
use joinstudy_exec::metrics::MemPhase;
use joinstudy_exec::ops::{AggFunc, AggSink, AggSpec, SortKey, SortSink, TableScan};
use joinstudy_exec::pipeline::LocalState;
use joinstudy_exec::trace::{QueryTrace, SpanKind};
use joinstudy_exec::{
    Batch, ExecResult, Executor, Operator, PipelineObs, QueryContext, Sink, Source,
};
use joinstudy_storage::types::DataType;
use joinstudy_tpch::{StreamGen, StreamScan, TpchData, TpchTable};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repetitions per layer; the median is reported.
const REPS: usize = 3;

/// Rows per call into the vector kernels (the engine's batch size).
const CHUNK: usize = joinstudy_exec::BATCH_ROWS;

/// Counts the rows that reach it and keeps nothing.
#[derive(Default)]
struct CountSink(AtomicU64);

impl CountSink {
    fn rows(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Sink for CountSink {
    fn consume(&self, _local: &mut LocalState, input: Batch) -> ExecResult {
        self.0.fetch_add(input.num_rows() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// Keeps every batch that reaches it.
#[derive(Default)]
struct BatchSink(Mutex<Vec<Batch>>);

impl Sink for BatchSink {
    fn consume(&self, _local: &mut LocalState, input: Batch) -> ExecResult {
        self.0.lock().expect("batch sink poisoned").push(input);
        Ok(())
    }
}

/// Run one pipeline on a single worker with profiler slots on.
fn observe(
    ctx: &Arc<QueryContext>,
    source: &dyn Source,
    ops: &[Arc<dyn Operator>],
    sink: &dyn Sink,
) -> PipelineObs {
    let obs = PipelineObs::new(ops.len());
    Executor::new(1)
        .run_pipeline_obs(ctx, source, ops, sink, Some(&obs))
        .expect("layer pipeline failed");
    obs
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median over [`REPS`] runs of `f`, which returns `(ns, units)`.
fn per_unit(mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, units) = f();
            ns as f64 / units.max(1) as f64
        })
        .collect();
    median(&v)
}

fn i64_column(t: &joinstudy_storage::table::Table, name: &str) -> Vec<i64> {
    t.column_by_name(name).as_i64().to_vec()
}

fn hashes_of(keys: &[i64]) -> Vec<u64> {
    let mut out = vec![0u64; keys.len()];
    for (k, h) in keys.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
        joinstudy_core::simd::hash_i64(k, h, true);
    }
    out
}

/// `tpch.gen_ns_per_row`: one timed call to `tpch::generate` at SF 0.02.
pub fn gen_ns_per_row(seed: u64) -> Metric {
    let v = per_unit(|| {
        let t = Instant::now();
        let data = joinstudy_tpch::generate(0.02, seed);
        let ns = ns_since(t);
        let rows = [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ]
        .iter()
        .map(|n| data.table(n).num_rows() as u64)
        .sum();
        (ns, rows)
    });
    metric("tpch.gen_ns_per_row", v, "ns/row")
}

/// Every kernel, operator and pipeline layer, measured on `data`'s orders
/// (build side) and lineitem (probe side). `hhj_budget` is the memory
/// budget the hybrid hash join layer runs under; spill files go to
/// `work_dir`.
pub fn suite(data: &TpchData, seed: u64, hhj_budget: usize, work_dir: &Path) -> Vec<Metric> {
    let mut out = vec![gen_ns_per_row(seed)];
    let ctx = QueryContext::unbounded();
    let build_keys = i64_column(&data.orders, "o_orderkey");
    let probe_keys = i64_column(&data.lineitem, "l_orderkey");

    // Hash kernel over the probe-side join keys.
    let mut hashes = vec![0u64; probe_keys.len()];
    let v = per_unit(|| {
        let t = Instant::now();
        for (k, h) in probe_keys.chunks(CHUNK).zip(hashes.chunks_mut(CHUNK)) {
            joinstudy_core::simd::hash_i64(black_box(k), h, true);
        }
        black_box(&hashes);
        (ns_since(t), probe_keys.len() as u64)
    });
    out.push(metric("hash.ns_per_key", v, "ns/key"));

    // Radix histogram kernel over packed (hash, key) rows, 64 KiB chunks.
    let radix = RadixConfig::default();
    let (bits1, bits2) = (radix.bits_pass1, radix.max_bits_pass2);
    let mut rows = Vec::with_capacity(probe_keys.len() * 16);
    for (h, k) in hashes.iter().zip(&probe_keys) {
        rows.extend_from_slice(&h.to_le_bytes());
        rows.extend_from_slice(&k.to_le_bytes());
    }
    let mut counts = vec![0usize; 1 << bits2];
    let v = per_unit(|| {
        counts.iter_mut().for_each(|c| *c = 0);
        let t = Instant::now();
        for chunk in rows.chunks(64 << 10) {
            joinstudy_core::simd::hist_chunk(
                black_box(chunk),
                16,
                0,
                bits1,
                (1 << bits2) - 1,
                &mut counts,
            );
        }
        black_box(&counts);
        (ns_since(t), probe_keys.len() as u64)
    });
    out.push(metric("radix.hist_ns_per_row", v, "ns/row"));
    drop(rows);

    // Bloom probe: a filter over every other build key, probed with every
    // probe key. An ideal filter passes half of them.
    let bloom = BlockedBloom::new(1 << (bits1 + bits2), build_keys.len() / 2);
    for h in hashes_of(&build_keys).iter().step_by(2) {
        bloom.insert(partition_of(*h, bits1, bits2), *h);
    }
    let mut sel = Vec::with_capacity(CHUNK);
    let mut passed = 0u64;
    let v = per_unit(|| {
        passed = 0;
        let t = Instant::now();
        for chunk in hashes.chunks(CHUNK) {
            bloom.probe_sel(bits1, bits2, black_box(chunk), &mut sel);
            passed += sel.len() as u64;
        }
        (ns_since(t), hashes.len() as u64)
    });
    out.push(metric("bloom.probe_ns_per_key", v, "ns/key"));
    out.push(metric(
        "bloom.pass_share",
        passed as f64 / hashes.len().max(1) as f64,
        "share",
    ));
    drop(hashes);

    let build_scan = || TableScan::by_names(Arc::clone(&data.orders), &["o_orderkey"], None);
    let probe_cols = ["l_orderkey", "l_extendedprice"];
    let probe_scan = || TableScan::by_names(Arc::clone(&data.lineitem), &probe_cols, None);
    let build_types = [DataType::Int64];
    let probe_types = [DataType::Int64, DataType::Decimal];
    let probe_rows = probe_keys.len() as u64;

    // BHJ: build sink plus the hash-table finalize, then the probe operator.
    let mut bhj_build = Vec::new();
    let mut bhj_probe = Vec::new();
    for _ in 0..REPS {
        let sink = BhjBuildSink::new(&build_types, vec![0]).with_context(Arc::clone(&ctx));
        let obs = observe(&ctx, &build_scan(), &[], &sink);
        let t = Instant::now();
        let state = sink.into_state(1).expect("BHJ finalize");
        let ns = obs.sink.busy_ns() + ns_since(t);
        bhj_build.push(ns as f64 / obs.sink.rows_in().max(1) as f64);
        let probe: Arc<dyn Operator> =
            Arc::new(BhjProbeOp::new(state, vec![0], JoinType::Inner, true));
        let count = CountSink::default();
        let obs = observe(&ctx, &probe_scan(), &[probe], &count);
        assert_eq!(count.rows(), probe_rows, "BHJ layer lost rows");
        bhj_probe.push(obs.ops[0].busy_ns() as f64 / obs.ops[0].rows_in().max(1) as f64);
    }
    out.push(metric(
        "pipe.bhj_build.ns_per_tuple",
        median(&bhj_build),
        "ns/tuple",
    ));
    out.push(metric(
        "pipe.bhj_probe.ns_per_tuple",
        median(&bhj_probe),
        "ns/tuple",
    ));

    // RJ: both partition sinks with their finalize (histogram, exchange,
    // pass 2), then the partition-wise join source.
    let mut part = Vec::new();
    let mut join = Vec::new();
    for _ in 0..REPS {
        let bsink = PartitionSink::new(
            RowLayout::new(&build_types, false),
            vec![0],
            radix,
            PhaseSet::build(),
        )
        .with_context(Arc::clone(&ctx));
        let bobs = observe(&ctx, &build_scan(), &[], &bsink);
        let t = Instant::now();
        let (bside, _) = bsink.finalize(1, None, false).expect("RJ build finalize");
        let mut ns = bobs.sink.busy_ns() + ns_since(t);
        let psink = PartitionSink::new(
            RowLayout::new(&probe_types, false),
            vec![0],
            radix,
            PhaseSet::probe(),
        )
        .with_context(Arc::clone(&ctx));
        let pobs = observe(&ctx, &probe_scan(), &[], &psink);
        let t = Instant::now();
        let (pside, _) = psink
            .finalize(1, Some(bside.bits2()), false)
            .expect("RJ probe finalize");
        ns += pobs.sink.busy_ns() + ns_since(t);
        let tuples = bobs.sink.rows_in() + pobs.sink.rows_in();
        part.push(ns as f64 / tuples.max(1) as f64);
        let source = RadixJoinSource::new(
            Arc::new(bside),
            Arc::new(pside),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        let count = CountSink::default();
        let obs = observe(&ctx, &source, &[], &count);
        assert_eq!(count.rows(), probe_rows, "RJ layer lost rows");
        join.push(obs.source.busy_ns() as f64 / tuples.max(1) as f64);
    }
    out.push(metric(
        "pipe.partition.ns_per_tuple",
        median(&part),
        "ns/tuple",
    ));
    out.push(metric(
        "pipe.rj_join.ns_per_tuple",
        median(&join),
        "ns/tuple",
    ));

    // HHJ under `hhj_budget`: both partition-and-spill sinks with their
    // finalize, then the join source (which reads spilled runs back).
    let mut part = Vec::new();
    let mut join = Vec::new();
    for _ in 0..REPS {
        let hctx = QueryContext::unbounded();
        hctx.set_memory_budget(Some(hhj_budget));
        hctx.arm();
        let dir = SpillDir::create(Some(work_dir.to_path_buf())).expect("spill dir");
        let cfg = SpillConfig::default();
        let fanout = cfg.effective_fanout_bits(Some(hhj_budget));
        let side = |phase, label| {
            PartitionSpillSink::new(
                vec![0],
                fanout,
                phase,
                label,
                Arc::clone(&hctx),
                Arc::clone(&dir),
            )
        };
        let bsink = side(MemPhase::Build, "build");
        let bobs = observe(&hctx, &build_scan(), &[], &bsink);
        let t = Instant::now();
        let bparts = bsink.finalize().expect("HHJ build finalize");
        let mut ns = bobs.sink.busy_ns() + ns_since(t);
        let psink = side(MemPhase::PartitionPass1, "probe");
        let pobs = observe(&hctx, &probe_scan(), &[], &psink);
        let t = Instant::now();
        let pparts = psink.finalize().expect("HHJ probe finalize");
        ns += pobs.sink.busy_ns() + ns_since(t);
        let tuples = bobs.sink.rows_in() + pobs.sink.rows_in();
        part.push(ns as f64 / tuples.max(1) as f64);
        let source = HybridJoinSource::new(
            bparts,
            pparts,
            build_types.to_vec(),
            vec![0],
            vec![0],
            JoinType::Inner,
            true,
            cfg,
            fanout,
            Arc::clone(&hctx),
            Arc::clone(&dir),
        );
        let count = CountSink::default();
        let obs = observe(&hctx, &source, &[], &count);
        assert_eq!(count.rows(), probe_rows, "HHJ layer lost rows");
        join.push(obs.source.busy_ns() as f64 / tuples.max(1) as f64);
    }
    out.push(metric(
        "pipe.hhj_partition.ns_per_tuple",
        median(&part),
        "ns/tuple",
    ));
    out.push(metric(
        "pipe.hhj_join.ns_per_tuple",
        median(&join),
        "ns/tuple",
    ));

    // Spill I/O: write the probe side as one spill run, read it back.
    let batches = BatchSink::default();
    observe(&ctx, &probe_scan(), &[], &batches);
    let batches = batches.0.into_inner().expect("batch sink poisoned");
    let dir = SpillDir::create(Some(work_dir.to_path_buf())).expect("spill dir");
    let mut write = Vec::new();
    let mut read = Vec::new();
    for rep in 0..REPS {
        let t = Instant::now();
        let mut w = SpillWriter::create(&dir, &format!("layer-{rep}"), &ctx).expect("spill create");
        for b in &batches {
            w.write_batch(b).expect("spill write");
        }
        let file = w.finish().expect("spill finish");
        let wns = ns_since(t);
        let bytes = file.bytes().max(1) as f64;
        let t = Instant::now();
        let mut r = SpillReader::open(&file, &ctx).expect("spill open");
        let mut back = 0u64;
        while let Some(b) = r.read_batch().expect("spill read") {
            back += b.num_rows() as u64;
        }
        read.push(ns_since(t) as f64 / bytes);
        write.push(wns as f64 / bytes);
        assert_eq!(back, probe_rows, "spill run lost rows");
        file.remove();
    }
    drop(dir);
    drop(batches);
    out.push(metric("spill.write_ns_per_byte", median(&write), "ns/B"));
    out.push(metric("spill.read_ns_per_byte", median(&read), "ns/B"));

    // Streaming generator: lineitem chunks at SF 0.05, the join's columns.
    let gen = Arc::new(StreamGen::new(0.05, seed));
    let v = per_unit(|| {
        let scan = StreamScan::by_names(Arc::clone(&gen), TpchTable::Lineitem, &probe_cols);
        let count = CountSink::default();
        let obs = observe(&ctx, &scan, &[], &count);
        (obs.source.busy_ns(), count.rows())
    });
    out.push(metric("stream.gen_ns_per_row", v, "ns/row"));

    // Scan, aggregate and sort operators.
    let scan_cols = [
        "l_orderkey",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_shipdate",
    ];
    let v = per_unit(|| {
        let scan = TableScan::by_names(Arc::clone(&data.lineitem), &scan_cols, None);
        let count = CountSink::default();
        let obs = observe(&ctx, &scan, &[], &count);
        (obs.source.busy_ns(), count.rows())
    });
    out.push(metric("op.scan.ns_per_tuple", v, "ns/tuple"));
    let v = per_unit(|| {
        let cols = [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
        ];
        let scan = TableScan::by_names(Arc::clone(&data.lineitem), &cols, None);
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, 2, "sum_qty"),
            AggSpec::new(AggFunc::Sum, 3, "sum_price"),
            AggSpec::new(AggFunc::CountStar, 0, "cnt"),
        ];
        let sink = AggSink::new(scan.output_schema(), vec![0, 1], aggs);
        let obs = observe(&ctx, &scan, &[], &sink);
        let t = Instant::now();
        black_box(sink.into_table());
        (obs.sink.busy_ns() + ns_since(t), obs.sink.rows_in())
    });
    out.push(metric("op.aggregate.ns_per_tuple", v, "ns/tuple"));
    let v = per_unit(|| {
        let cols = ["o_orderdate", "o_totalprice", "o_orderkey"];
        let scan = TableScan::by_names(Arc::clone(&data.orders), &cols, None);
        let sink = SortSink::new(
            scan.output_schema(),
            vec![SortKey::asc(0), SortKey::desc(1)],
            None,
        );
        let obs = observe(&ctx, &scan, &[], &sink);
        let t = Instant::now();
        black_box(sink.into_table());
        (obs.sink.busy_ns() + ns_since(t), obs.sink.rows_in())
    });
    out.push(metric("op.sort.ns_per_tuple", v, "ns/tuple"));

    // Parse and plan: Session::explain of every serving statement.
    let mut session = joinstudy_sql::Session::new(1);
    for name in crate::serve::TABLES {
        session.register(name, Arc::clone(data.table(name)));
    }
    let per_stmt: Vec<f64> = crate::serve::MIX
        .iter()
        .map(|sql| {
            let v: Vec<f64> = (0..20)
                .map(|_| {
                    let t = Instant::now();
                    black_box(session.explain(sql).expect("explain"));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&v)
        })
        .collect();
    out.push(metric(
        "sql.plan_us",
        crate::stats::geomean(&per_stmt),
        "us",
    ));
    out
}

/// The per-layer metrics read from the workload's own traced operations.
pub fn workload_layers(
    residual: f64,
    overhead: f64,
    peak_bytes: usize,
    spill_write: u64,
    recursions: u64,
) -> Vec<Metric> {
    vec![
        metric("closure.residual_share", residual, "share"),
        metric("trace.overhead_share", overhead, "share"),
        metric("mem.peak_mib", peak_bytes as f64 / (1 << 20) as f64, "MiB"),
        metric(
            "spill.write_mib",
            spill_write as f64 / (1 << 20) as f64,
            "MiB",
        ),
        metric("spill.recursions", recursions as f64, "count"),
    ]
}

/// Serving-layer metrics for workloads that do not go through the server:
/// no statement waits for admission or for the shared pool.
pub fn no_server() -> Vec<Metric> {
    vec![
        metric("admission.wait_ms", 0.0, "ms"),
        metric("ash.pool_wait_share", 0.0, "share"),
        metric("ash.cpu_share", 0.0, "share"),
    ]
}

/// Wall time of a traced query plan and the part of it covered by morsel
/// and engine phase spans (their union, so nested spans count once).
pub fn coverage(trace: &QueryTrace) -> (u64, u64) {
    let mut iv: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Morsel | SpanKind::Phase))
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    iv.sort_unstable();
    let (mut covered, mut end) = (0u64, 0u64);
    for (s, e) in iv {
        let s = s.max(end);
        if e > s {
            covered += e - s;
            end = e;
        }
    }
    (covered.min(trace.wall_ns), trace.wall_ns)
}
