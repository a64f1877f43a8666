//! The traced run's per-layer numbers, measured from outside: each
//! layer's public entry point is called on the decoded trace inside a
//! span, and the runners' own counters are read off `SimResult`.

use std::hint::black_box;

use qap::exec::OpMetrics;
use qap::optimizer::SplitStrategy;
use qap::partition::KeySketch;
use qap::prelude::*;
use qap::types::{decode_column_batch, encode_column_batch, tcp_schema, BytesMut, ColumnBatch};

use crate::report::Metric;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{Reference, Runner, Workload};

/// Times trace-to-columns conversion, the hash splitter, the adaptive
/// splitter's sketch routing, the wire codec, the centralized engine
/// and the `run_logical` reference on the decoded trace, in engine
/// batch chunks. Returns the metrics and the reference the runs are
/// checked against.
pub fn isolated(
    t: &mut Tracer,
    w: Workload,
    dag: &QueryDag,
    plan: &DistributedPlan,
    sim: &SimConfig,
    trace: &[Tuple],
) -> Result<(Vec<Metric>, Reference), String> {
    let n = trace.len().max(1) as f64;
    let ns_per_tuple = |secs: f64| secs * 1e9 / n;
    let mut out = Vec::new();

    let mut cols: Vec<ColumnBatch> = t.span("types.to_columns", |_| {
        trace
            .chunks(sim.batch.max_batch.max(1))
            .map(ColumnBatch::from_rows)
            .collect()
    });
    out.push(Metric::new(
        "types.to_columns_ns_per_tuple",
        "ns/tuple",
        ns_per_tuple(last(t, "types.to_columns")),
    ));

    let schema = tcp_schema();
    let hash_set = match &plan.partitioning.strategy {
        SplitStrategy::Hash(set) => Some(set),
        SplitStrategy::RoundRobin => None,
    };
    match hash_set {
        Some(set) => {
            let splitter = HashPartitioner::new(set, &schema, plan.partitioning.partitions)
                .map_err(|e| format!("splitter: {e}"))?;
            let mut parts = Vec::new();
            let routed = t.span("partition.hash", |_| {
                let mut routed = 0;
                for c in &cols {
                    if splitter.partition_columns(c, &mut parts) {
                        routed += black_box(&parts).len();
                    }
                }
                routed
            });
            if routed != trace.len() {
                return Err(format!(
                    "hash splitter routed {routed} of {} rows",
                    trace.len()
                ));
            }
            out.push(Metric::new(
                "partition.hash_ns_per_tuple",
                "ns/tuple",
                ns_per_tuple(last(t, "partition.hash")),
            ));
        }
        None => out.push(Metric::not_applicable(
            "partition.hash_ns_per_tuple",
            "ns/tuple",
        )),
    }

    match hash_set.filter(|_| w.adaptive()) {
        Some(set) => {
            let splitter = HashPartitioner::with_buckets(
                set,
                &schema,
                plan.partitioning.partitions,
                sim.transport.rebalance.buckets_per_partition,
            )
            .map_err(|e| format!("splitter: {e}"))?;
            let mut sketch = KeySketch::with_defaults();
            let (mut parts, mut buckets, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
            t.span("partition.sketch_route", |_| {
                for c in &cols {
                    splitter.route_columns_hashed(c, &mut parts, &mut buckets, &mut hashes);
                    for &h in &hashes {
                        sketch.observe(h);
                    }
                }
            });
            if sketch.observed() != trace.len() as u64 {
                return Err(format!(
                    "sketch saw {} of {} rows",
                    sketch.observed(),
                    trace.len()
                ));
            }
            out.push(Metric::new(
                "partition.sketch_route_ns_per_tuple",
                "ns/tuple",
                ns_per_tuple(last(t, "partition.sketch_route")),
            ));
        }
        None => out.push(Metric::not_applicable(
            "partition.sketch_route_ns_per_tuple",
            "ns/tuple",
        )),
    }

    // The simulator delivers batches in-process; only the threaded and
    // TCP runners encode frames.
    if w.runner() == Runner::Sim {
        for name in [
            "types.wire_encode_ns_per_tuple",
            "types.wire_decode_ns_per_tuple",
            "types.wire_bytes_per_tuple",
        ] {
            out.push(Metric::not_applicable(
                name,
                if name.ends_with("bytes_per_tuple") {
                    "B/tuple"
                } else {
                    "ns/tuple"
                },
            ));
        }
    } else {
        let mut scratch = BytesMut::new();
        let frames = t.span("types.wire_encode", |_| {
            cols.iter()
                .map(|c| encode_column_batch(c, &mut scratch))
                .collect::<Result<Vec<_>, _>>()
        });
        let frames = frames.map_err(|e| format!("encode_column_batch: {e}"))?;
        let bytes: usize = frames.iter().map(|f| f.len()).sum();
        let decoded = t.span("types.wire_decode", |_| {
            let mut rows = 0;
            for f in frames {
                rows += black_box(decode_column_batch(f)?).rows();
            }
            Ok::<_, qap::types::TypeError>(rows)
        });
        let decoded = decoded.map_err(|e| format!("decode_column_batch: {e}"))?;
        if decoded != trace.len() {
            return Err(format!("wire decoded {decoded} of {} rows", trace.len()));
        }
        out.push(Metric::new(
            "types.wire_encode_ns_per_tuple",
            "ns/tuple",
            ns_per_tuple(last(t, "types.wire_encode")),
        ));
        out.push(Metric::new(
            "types.wire_decode_ns_per_tuple",
            "ns/tuple",
            ns_per_tuple(last(t, "types.wire_decode")),
        ));
        out.push(Metric::new(
            "types.wire_bytes_per_tuple",
            "B/tuple",
            bytes as f64 / n,
        ));
    }

    let mut engine = Engine::new(dag).map_err(|e| format!("engine: {e}"))?;
    engine.set_batch_config(sim.batch);
    let [source] = engine.source_nodes()[..] else {
        return Err("the workload's DAG must read exactly one stream".into());
    };
    t.span("exec.engine", |_| {
        for c in &mut cols {
            engine.push_columns(source, c)?;
        }
        engine.finish()
    })
    .map_err(|e| format!("engine: {e}"))?;
    out.push(Metric::new(
        "exec.engine_ns_per_tuple",
        "ns/tuple",
        ns_per_tuple(last(t, "exec.engine")),
    ));
    drop(cols);

    let owned = trace.to_vec();
    let logical = t.span("exec.reference", |_| run_logical(dag, owned));
    let reference = Reference::new(logical.map_err(|e| format!("run_logical: {e}"))?);
    out.push(Metric::new(
        "exec.reference_s",
        "s",
        last(t, "exec.reference"),
    ));
    Ok((out, reference))
}

/// Layer counters one cluster run reports about itself: kernel
/// fallbacks, group-table probes and window flushes summed over the
/// plan's nodes, boundary transport, host balance and re-partitioning.
pub fn from_run(w: Workload, r: &SimResult) -> Vec<Metric> {
    let nodes = &r.node_metrics;
    let sum = |f: fn(&OpMetrics) -> u64| nodes.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, fallbacks) = (sum(|m| m.kernel_hits), sum(|m| m.kernel_fallbacks));
    let m = &r.metrics;
    let mut out = vec![
        Metric::new(
            "exec.kernel_fallback_ratio",
            "ratio",
            ratio(fallbacks, hits + fallbacks),
        ),
        Metric::new(
            "exec.group_probes_per_insert",
            "ratio",
            ratio(sum(|m| m.group_probes), sum(|m| m.group_inserts)),
        ),
        Metric::new("exec.flush_ms", "ms", sum(|m| m.flush_ns) / 1e6),
    ];
    let tr = &m.transport;
    let transport = [
        ("cluster.frames", tr.frames),
        ("cluster.frame_bytes", tr.frame_bytes),
        ("cluster.queue_peak", tr.queue_peak),
        ("cluster.backpressure_stalls", tr.backpressure_stalls),
        ("cluster.send_retries", tr.retries),
    ];
    let unit = |name: &str| {
        if name.ends_with("bytes") {
            "B"
        } else {
            "count"
        }
    };
    for (name, v) in transport {
        out.push(if w.runner() == Runner::Sim {
            Metric::not_applicable(name, unit(name))
        } else {
            Metric::new(name, unit(name), v as f64)
        });
    }
    let total_work: f64 = m.work.iter().sum();
    let max_work = m.work.iter().copied().fold(0.0, f64::max);
    out.push(Metric::new(
        "cluster.leaf_imbalance",
        "ratio",
        m.leaf_imbalance,
    ));
    out.push(Metric::new(
        "cluster.max_host_work_share",
        "ratio",
        ratio(max_work, total_work),
    ));
    let rebalance = [
        ("cluster.repartitions", "count", m.repartitions as f64),
        ("cluster.migrated_keys", "count", m.migrated_keys as f64),
        ("cluster.migration_pause_ms", "ms", m.migration_pause_ms),
        ("cluster.load_imbalance", "ratio", m.load_imbalance),
    ];
    for (name, unit, v) in rebalance {
        out.push(if w.adaptive() {
            Metric::new(name, unit, v)
        } else {
            Metric::not_applicable(name, unit)
        });
    }
    out
}

/// Per-name medians over several runs' metric lists (all lists name the
/// same metrics in the same order).
pub fn medians(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            Metric {
                value: median(&values).unwrap_or(0.0),
                ..m.clone()
            }
        })
        .collect()
}

fn last(t: &Tracer, name: &str) -> f64 {
    t.secs(name).last().copied().unwrap_or(0.0)
}
