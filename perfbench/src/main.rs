//! End-to-end benchmark of the query-aware partitioning system: a
//! seeded trace is written as `.qtr` outside the timed region, then
//! each timed run reads it back and executes the workload's
//! distributed plan, and its sorted outputs are checked against the
//! centralized `run_logical` reference.
//!
//! ```text
//! qap-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes the
//! separate traced run and prints the per-layer metrics. Progress and
//! a readable summary go to stderr; the last line of stdout is the
//! JSON result. See `perfbench/README.md` for the workloads and what
//! each metric measures.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux /proc counters");

mod layers;
mod report;
mod spans;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qap::prelude::*;

use report::{result_json, Metric};
use spans::Tracer;
use stats::{median, quartiles, tail};
use workload::{execute, Hosts, Reference, Runner, TraceFile, Workload};

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("agg_rx_tuples", "tuples"),
];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [(&str, &str); 28] = [
    ("trace.decode_s", "s"),
    ("trace.resident_mb", "MB"),
    ("sql.parse_s", "s"),
    ("optimizer.plan_s", "s"),
    ("types.to_columns_ns_per_tuple", "ns/tuple"),
    ("partition.hash_ns_per_tuple", "ns/tuple"),
    ("partition.sketch_route_ns_per_tuple", "ns/tuple"),
    ("types.wire_encode_ns_per_tuple", "ns/tuple"),
    ("types.wire_decode_ns_per_tuple", "ns/tuple"),
    ("types.wire_bytes_per_tuple", "B/tuple"),
    ("exec.engine_ns_per_tuple", "ns/tuple"),
    ("exec.reference_s", "s"),
    ("exec.kernel_fallback_ratio", "ratio"),
    ("exec.group_probes_per_insert", "ratio"),
    ("exec.flush_ms", "ms"),
    ("cluster.run_s", "s"),
    ("cluster.frames", "count"),
    ("cluster.frame_bytes", "B"),
    ("cluster.queue_peak", "count"),
    ("cluster.backpressure_stalls", "count"),
    ("cluster.send_retries", "count"),
    ("cluster.leaf_imbalance", "ratio"),
    ("cluster.max_host_work_share", "ratio"),
    ("cluster.repartitions", "count"),
    ("cluster.migrated_keys", "count"),
    ("cluster.migration_pause_ms", "ms"),
    ("cluster.load_imbalance", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Timed runs made even when `--seconds` has already passed.
const MIN_RUNS: usize = 3;
/// Set-up repetitions before the first run, and before each later run
/// at least `SETUP_SLOT_REPS` more for at least `SETUP_SLOT`, so the
/// set-up samples spread over the whole measuring time as the runs do.
const SETUP_FIRST_REPS: usize = 11;
const SETUP_SLOT_REPS: usize = 3;
const SETUP_SLOT: Duration = Duration::from_millis(40);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    traced: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut out = PathBuf::from(".perfbench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out,
    })
}

/// What one workload's invocation reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: qap-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
                 [--out <dir>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    eprintln!(
        "perfbench: seed {}, {:?} per workload, {} hardware thread(s)",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for &w in &args.workloads {
        let o = if args.traced {
            traced(w, args.seed, args.seconds, &args.out)?
        } else {
            untraced(w, args.seed, args.seconds, &args.out)?
        };
        let expected = if args.traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let names: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, expected, "metric list out of step with its table");
        print_summary(w, &o);
        attempted += o.attempted;
        failed += o.failed;
        for m in o.metrics {
            metrics.push(if single {
                m
            } else {
                // `all`: prefix each metric with its workload.
                let name: &'static str = format!("{}.{}", w.name(), m.name).leak();
                Metric { name, ..m }
            });
        }
    }
    Ok(result_json(failed == 0, attempted, failed, &metrics))
}

/// Everything a workload's runs share, prepared outside the timer.
struct Prepared {
    w: Workload,
    plan: DistributedPlan,
    sim: SimConfig,
    file: TraceFile,
}

/// A run's measurements and its verdict: `Err` when it failed, returned
/// wrong outputs or broke the workload's validity rule.
struct Run {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    result: Result<SimResult, String>,
}

/// One end-to-end run: from opening the `.qtr` to the runner returning
/// all outputs. TCP hosts start before the timer and are joined after.
/// `Err` only when the process counters cannot be read.
fn timed_run(p: &Prepared, reference: &Reference, t: &mut Tracer) -> Result<Run, String> {
    let hosts = match p.w.runner() {
        Runner::Tcp => Some(Hosts::start(&p.plan, &p.sim)?),
        _ => None,
    };
    sys::release_free_heap();
    sys::reset_peak_rss()?;
    let cpu0 = sys::cpu_time()?;
    let t0 = Instant::now();
    let (trace, result) = t.span("e2e", |t| {
        let trace = t.span("trace.decode", |_| p.file.read());
        let result = match &trace {
            Ok(trace) => t.span("cluster.run", |_| {
                execute(p.w, &p.plan, trace, &p.sim, hosts.as_ref())
            }),
            Err(e) => Err(e.clone()),
        };
        (trace, result)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_time()? - cpu0).as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mb()?;
    drop(trace);
    let joined = hosts.map_or(Ok(()), Hosts::join);
    let result = result.and_then(|r| {
        joined?;
        reference.check(&p.plan, &r)?;
        p.w.check_valid(&r)?;
        Ok(r)
    });
    Ok(Run {
        wall_s,
        cpu_s,
        peak_rss_mb,
        result,
    })
}

/// What a successful run leaves behind once its outputs are checked.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    agg_rx_tuples: f64,
    layers: Vec<Metric>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// [`timed_run`], counted in `tally`; `None` for a failed run, which
/// is reported on stderr with the workload and run index.
fn checked_run(
    p: &Prepared,
    reference: &Reference,
    t: &mut Tracer,
    index: usize,
    tally: &mut Tally,
) -> Result<Option<Sample>, String> {
    let run = timed_run(p, reference, t)?;
    tally.attempted += 1;
    match run.result {
        Ok(r) => {
            eprintln!(
                "  run {index:<3} wall {:.4} s  cpu {:.4} s  peak {:.1} MB",
                run.wall_s, run.cpu_s, run.peak_rss_mb
            );
            Ok(Some(Sample {
                wall_s: run.wall_s,
                cpu_s: run.cpu_s,
                peak_rss_mb: run.peak_rss_mb,
                agg_rx_tuples: r.metrics.aggregator_rx_tuples as f64,
                layers: layers::from_run(p.w, &r),
            }))
        }
        Err(e) => {
            tally.failed += 1;
            eprintln!("perfbench: FAILED {} run {index}: {e}", p.w.name());
            Ok(None)
        }
    }
}

/// Set-up timings, one entry per repetition.
#[derive(Default)]
struct SetupTimes {
    parse_s: Vec<f64>,
    plan_s: Vec<f64>,
}

impl SetupTimes {
    /// Sets the workload up `min_reps` times or more, until `min_time`
    /// has passed, and returns the last DAG and plan.
    fn repeat(
        &mut self,
        w: Workload,
        t: &mut Tracer,
        min_reps: usize,
        min_time: Duration,
    ) -> Result<(QueryDag, DistributedPlan), String> {
        let start = Instant::now();
        let mut reps = 0;
        loop {
            let t0 = Instant::now();
            let dag = t.span("sql.parse", |_| w.parse_queries());
            let t1 = Instant::now();
            let plan = t.span("optimizer.plan", |_| w.plan(&dag))?;
            self.parse_s.push((t1 - t0).as_secs_f64());
            self.plan_s.push(t1.elapsed().as_secs_f64());
            reps += 1;
            if reps >= min_reps && start.elapsed() >= min_time {
                return Ok((dag, plan));
            }
        }
    }

    /// More repetitions between runs, untraced.
    fn between_runs(&mut self, w: Workload) -> Result<(), String> {
        self.repeat(w, &mut Tracer::off(), SETUP_SLOT_REPS, SETUP_SLOT)
            .map(drop)
    }

    fn total_s(&self) -> Vec<f64> {
        self.parse_s
            .iter()
            .zip(&self.plan_s)
            .map(|(a, b)| a + b)
            .collect()
    }
}

/// Sets up the workload and writes its trace file.
fn prepare(
    w: Workload,
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
) -> Result<(Prepared, QueryDag, SetupTimes), String> {
    let mut setup = SetupTimes::default();
    let (dag, plan) = setup.repeat(w, t, SETUP_FIRST_REPS, Duration::ZERO)?;
    let file = TraceFile::create(w, &plan, seed, dir)?;
    eprintln!(
        "perfbench: {}: {} packets, {} flows, {} bytes in {} (regenerated byte-identical)",
        w.name(),
        file.packets,
        file.flows,
        file.bytes,
        file.path.display()
    );
    let p = Prepared {
        w,
        plan,
        sim: w.sim_config(),
        file,
    };
    Ok((p, dag, setup))
}

/// End-to-end metrics: a warm-up run, then timed runs for `seconds`
/// (at least `MIN_RUNS`), each checked against the reference.
fn untraced(w: Workload, seed: u64, seconds: Duration, dir: &Path) -> Result<Outcome, String> {
    let mut off = Tracer::off();
    let (p, dag, mut setup) = prepare(w, seed, dir, &mut off)?;
    let reference = Reference::compute(&dag, p.file.read()?)?;
    eprintln!("perfbench: reference has {} rows", reference.rows());
    let mut tally = Tally::default();
    checked_run(&p, &reference, &mut off, 0, &mut tally)?;
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 1;
    while i <= MIN_RUNS || start.elapsed() < seconds {
        setup.between_runs(w)?;
        samples.extend(checked_run(&p, &reference, &mut off, i, &mut tally)?);
        i += 1;
    }
    let series = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let columns = [
        series(|s| s.wall_s),
        series(|s| s.cpu_s),
        series(|s| s.peak_rss_mb),
        setup.total_s(),
        series(|s| s.agg_rx_tuples),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(&columns)
        .map(|(&(name, unit), values)| {
            describe(name, unit, values);
            Metric::new(name, unit, median(values).unwrap_or(f64::NAN))
        })
        .collect();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Per-layer metrics: spans around set-up, decode and each isolated
/// layer call, then alternating untraced and traced end-to-end runs for
/// `seconds`; the traced runs' spans and counters give the cluster
/// layers, and their wall clock over the untraced runs' gives the
/// tracing overhead. The spans are written to `dir` at the end.
fn traced(w: Workload, seed: u64, seconds: Duration, dir: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let (p, dag, mut setup) = prepare(w, seed, dir, &mut t)?;
    sys::release_free_heap();
    let rss0 = sys::rss_mb()?;
    let trace = t.span("trace.decode", |_| p.file.read())?;
    let resident_mb = sys::rss_mb()? - rss0;
    let (isolated, reference) = layers::isolated(&mut t, w, &dag, &p.plan, &p.sim, &trace)?;
    drop(trace);

    let mut off = Tracer::off();
    let mut tally = Tally::default();
    checked_run(&p, &reference, &mut off, 0, &mut tally)?;
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 1;
    while spanned.len() < MIN_RUNS.min(i) || start.elapsed() < seconds {
        setup.between_runs(w)?;
        if i % 2 == 1 {
            plain.extend(checked_run(&p, &reference, &mut off, i, &mut tally)?);
        } else {
            spanned.extend(checked_run(&p, &reference, &mut t, i, &mut tally)?);
        }
        i += 1;
    }
    if spanned.is_empty() {
        return Err(format!("every traced run of {} failed", w.name()));
    }
    let wall = |v: &[Sample]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let overhead = match (wall(&spanned), wall(&plain)) {
        (Some(a), Some(b)) => a / b,
        _ => f64::NAN,
    };
    let from_run = layers::medians(&spanned.iter().map(|s| s.layers.clone()).collect::<Vec<_>>());
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);

    let mut metrics = vec![
        Metric::new("trace.decode_s", "s", med(&t.secs("trace.decode"))),
        Metric::new("trace.resident_mb", "MB", resident_mb),
        Metric::new("sql.parse_s", "s", med(&setup.parse_s)),
        Metric::new("optimizer.plan_s", "s", med(&setup.plan_s)),
    ];
    metrics.extend(isolated);
    let (exec, cluster) = from_run.split_at(from_run.len().min(3));
    metrics.extend_from_slice(exec);
    metrics.push(Metric::new(
        "cluster.run_s",
        "s",
        med(&t.secs("cluster.run")),
    ));
    metrics.extend_from_slice(cluster);
    metrics.push(Metric::new("bench.trace_overhead", "ratio", overhead));

    let spans_path = dir.join(format!("spans-{}-{seed}.json", w.name()));
    std::fs::write(&spans_path, t.to_json())
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    eprintln!("perfbench: spans written to {}", spans_path.display());
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// One end-to-end metric's distribution, on stderr.
fn describe(name: &str, unit: &str, values: &[f64]) {
    let mut line = format!("  {name:<14} n={:<3}", values.len());
    if let Some(m) = median(values) {
        line += &format!(" median {m:.6} {unit}");
    }
    if let Some((q1, q3)) = quartiles(values) {
        line += &format!("  q1 {q1:.6}  q3 {q3:.6}");
    }
    match tail(values) {
        Some((pct, v)) => line += &format!("  p{pct:.1} {v:.6}"),
        None => line += "  (no percentile with 10 samples beyond)",
    }
    eprintln!("{line}");
}

fn print_summary(w: Workload, o: &Outcome) {
    eprintln!(
        "perfbench: {}: {} runs attempted, {} failed, failure_rate {}",
        w.name(),
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for m in &o.metrics {
        if m.applicable {
            eprintln!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
        } else {
            eprintln!("  {:<38} {:>16} {}", m.name, "n/a", m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one array of `BENCHMARK.json`, in order.
    fn manifest_section(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{key}\": ["))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("section closes")];
        let field = |obj: &str, f: &str| {
            let tag = format!("\"{f}\": \"");
            obj.find(&tag).map(|i| {
                let rest = &obj[i + tag.len()..];
                rest[..rest.find('"').expect("string closes")].to_string()
            })
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                let name = field(obj, "name").expect("entry has a name");
                (name, field(obj, "unit").unwrap_or_default())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn manifest_matches_the_metric_tables() {
        assert_eq!(manifest_section("end_to_end"), owned(&END_TO_END));
        assert_eq!(manifest_section("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = manifest_section("workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                report::valid_name(name) && report::valid_unit(unit),
                "{name} {unit}"
            );
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }
}
