//! Micro-benchmarks of the execution substrate: splitter throughput,
//! aggregation, join, and end-to-end engine tuple rates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use qap::prelude::*;
use qap::types::{tcp_schema, ColumnBatch};
use qap_bench::small_trace;

fn bench_partitioner(c: &mut Criterion) {
    let trace = small_trace();
    let schema = tcp_schema();
    let mut group = c.benchmark_group("hash_partitioner");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, set) in [
        (
            "five_tuple",
            PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]),
        ),
        ("src_only", PartitionSet::from_columns(["srcIP"])),
        (
            "masked",
            PartitionSet::from_exprs([&ScalarExpr::col("srcIP").mask(0xFFF0)]),
        ),
    ] {
        let p = HashPartitioner::new(&set, &schema, 8).expect("compiles");
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for t in &trace {
                    acc += p.partition(t);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let trace = small_trace();
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )
    .expect("parses");
    let dag = b.build();
    let mut group = c.benchmark_group("aggregation");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("flows_5col", |b| {
        b.iter(|| run_logical(&dag, trace.iter().cloned()).expect("runs"))
    });
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let trace = small_trace();
    let dag = Scenario::Complex.dag();
    let mut group = c.benchmark_group("join_pipeline");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("flows_heavy_pairs", |b| {
        b.iter(|| run_logical(&dag, trace.iter().cloned()).expect("runs"))
    });
    // Section 6.2: subnet aggregation plus the flow-jitter self-join,
    // fed as pre-staged 1024-row column batches (setup, untimed) the
    // way cluster hosts receive their input.
    let dag = Scenario::QuerySet.dag();
    let chunks: Vec<ColumnBatch> = trace.chunks(1024).map(ColumnBatch::from_rows).collect();
    group.bench_function("jitter_self_join", |b| {
        b.iter_batched(
            || chunks.clone(),
            |mut chunks| {
                let mut engine = Engine::new(&dag).expect("engine builds");
                let source = engine.source_nodes()[0];
                for cols in &mut chunks {
                    engine.push_columns(source, cols).expect("push");
                }
                engine.finish().expect("finish");
                engine
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let trace = small_trace();
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "web",
        "SELECT time, srcIP, len FROM TCP WHERE destPort = 80",
    )
    .expect("parses");
    let dag = b.build();
    let mut group = c.benchmark_group("selection");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("port_filter", |b| {
        b.iter(|| run_logical(&dag, trace.iter().cloned()).expect("runs"))
    });
    group.finish();
}

/// Batch-size sweep over the Section 6.1 simple-aggregation query —
/// the before/after series for the batched dataflow core. `batch=1`
/// reproduces the old tuple-at-a-time engine; the outputs are identical
/// at every size (the equivalence suite proves it), only the tuple rate
/// moves. The input trace is cloned in `iter_batched` setup, outside
/// the timed region, so the series measures engine throughput rather
/// than benchmark input construction.
fn bench_batch_sweep(c: &mut Criterion) {
    let trace = small_trace();
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )
    .expect("parses");
    let dag = b.build();
    let mut group = c.benchmark_group("engine_batch_sweep");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for batch in [1usize, 64, 1024] {
        group.bench_function(format!("simple_agg/batch_{batch}"), |b| {
            b.iter_batched(
                || trace.clone(),
                |input| run_logical_with(&dag, input, BatchConfig::new(batch)).expect("runs"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Row vs columnar engine hot path at the default 1024-tuple batch —
/// the before/after series for the columnar vectorized core. The `row`
/// variant feeds `Engine::push_batch` (tuple-at-a-time interpreter
/// inside each operator); the `columnar` variant feeds pre-staged SoA
/// batches through `Engine::push_columns`, exercising the compiled
/// expression kernels, selection-vector filtering and vectorized
/// group-key path. Outputs are identical (the columnar equivalence
/// suite proves it); only the tuple rate moves. Inputs are cloned in
/// `iter_batched` setup, outside the timed region.
fn bench_columnar_core(c: &mut Criterion) {
    let trace = small_trace();
    for (group_name, sql) in [
        (
            "columnar_selection",
            "SELECT time, srcIP, len FROM TCP WHERE destPort = 80",
        ),
        (
            "columnar_simple_agg",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        ),
        (
            "high_cardinality_agg",
            "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
        ),
    ] {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query("q", sql).expect("parses");
        columnar_group(c, group_name, &b.build(), &trace);
    }
}

/// String-predicate filter over a flow stream with a string-typed
/// protocol column — the dictionary lane's home workload. The protocol
/// names recur per flow, so per-batch dictionaries stay tiny and the
/// predicate runs as one compare per *distinct* value plus an integer
/// code scan.
fn bench_columnar_str_filter(c: &mut Criterion) {
    use qap::types::{DataType, Field, Schema, Temporality};
    const PROTOS: [&str; 6] = ["tcp", "udp", "icmp", "gre", "esp", "sctp"];
    let flows: Vec<Tuple> = small_trace()
        .iter()
        .map(|t| {
            let proto = PROTOS[(t.values()[5].as_u64().unwrap_or(0) as usize) % PROTOS.len()];
            Tuple::new(vec![
                t.values()[0].clone(),
                t.values()[2].clone(),
                Value::from(proto),
                t.values()[8].clone(),
            ])
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog
        .register(
            Schema::new(
                "FLOW",
                vec![
                    Field::temporal("time", DataType::UInt, Temporality::Increasing),
                    Field::new("srcIP", DataType::UInt),
                    Field::new("proto", DataType::Str),
                    Field::new("len", DataType::UInt),
                ],
            )
            .expect("static schema"),
        )
        .expect("static schema");
    let mut b = QuerySetBuilder::new(catalog);
    b.add_query("q", "SELECT time, srcIP, len FROM FLOW WHERE proto = 'tcp'")
        .expect("parses");
    columnar_group(c, "columnar_str_filter", &b.build(), &flows);
}

/// Benches one query group row-vs-columnar at the default 1024-tuple
/// batch, then prints the columnar run's per-lane kernel telemetry
/// (hits and fallbacks by lane type) so every report carries the
/// kernel-fallback rate next to the tuple rate.
fn columnar_group(c: &mut Criterion, group_name: &str, dag: &QueryDag, trace: &[Tuple]) {
    use qap::obs::{OpMetrics, KERNEL_LANE_LABELS};
    let batch = 1024usize;
    let root = dag.roots()[0];
    let mut group = c.benchmark_group(group_name);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function(format!("row/batch_{batch}"), |b| {
        b.iter_batched(
            || trace.to_vec(),
            |input| run_logical_with(dag, input, BatchConfig::new(batch)).expect("runs"),
            BatchSize::LargeInput,
        )
    });
    let col_chunks: Vec<ColumnBatch> = trace.chunks(batch).map(ColumnBatch::from_rows).collect();
    let run_columnar = |chunks: &mut Vec<ColumnBatch>| {
        let mut engine = Engine::new(dag).expect("engine builds");
        engine.set_batch_config(BatchConfig::new(batch));
        let source = engine.source_nodes()[0];
        for cols in chunks.iter_mut() {
            engine.push_columns(source, cols).expect("push");
        }
        engine.finish().expect("finish");
        engine
    };
    group.bench_function(format!("columnar/batch_{batch}"), |b| {
        b.iter_batched(
            || col_chunks.clone(),
            |mut chunks| {
                let mut engine = run_columnar(&mut chunks);
                engine.output(root)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
    // One untimed run harvests the lane telemetry (deterministic
    // across runs) for the fallback-rate report.
    let engine = run_columnar(&mut col_chunks.clone());
    let mut total = OpMetrics::default();
    for m in engine.metrics() {
        total.merge(&m);
    }
    let fmt_lanes = |arr: &[u64]| {
        KERNEL_LANE_LABELS
            .iter()
            .zip(arr)
            .filter(|(_, &v)| v > 0)
            .map(|(l, v)| format!("{l}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "{group_name}: kernel {} hit / {} fallback; lane hits [{}]; lane fallbacks [{}]",
        total.kernel_hits,
        total.kernel_fallbacks,
        fmt_lanes(&total.kernel_lane_hits),
        fmt_lanes(&total.kernel_lane_fallbacks),
    );
}

/// Metrics accounting on vs off over the Section 6.1 simple-aggregation
/// query — the throughput-cost measurement behind the observability
/// layer's ≤5% budget (also asserted by `tests/metrics_overhead.rs`).
/// Both variants drive the engine identically; only
/// `set_metrics_enabled` differs.
fn bench_metrics_overhead(c: &mut Criterion) {
    let trace = small_trace();
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "flows",
        "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP, destIP",
    )
    .expect("parses");
    let dag = b.build();
    let mut group = c.benchmark_group("metrics_overhead");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, on) in [("metrics_on", true), ("metrics_off", false)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || trace.clone(),
                |input| {
                    let mut engine = Engine::new(&dag).expect("engine builds");
                    engine.set_metrics_enabled(on);
                    let source = engine.source_nodes()[0];
                    let mut input = input;
                    engine.push_batch(source, &mut input).expect("push");
                    engine.finish().expect("finish");
                    engine.counters().len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let cfg = TraceConfig {
        epochs: 2,
        flows_per_epoch: 1000,
        ..TraceConfig::default()
    };
    c.bench_function("trace_generation", |b| b.iter(|| generate(&cfg)));
}

criterion_group!(
    benches,
    bench_partitioner,
    bench_aggregation,
    bench_join,
    bench_selection,
    bench_batch_sweep,
    bench_columnar_core,
    bench_columnar_str_filter,
    bench_metrics_overhead,
    bench_trace_generation
);
criterion_main!(benches);
