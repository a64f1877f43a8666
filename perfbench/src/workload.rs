//! The four workloads: what each one runs, on which input, and what a
//! valid run of it looks like.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qap::optimizer::SplitStrategy;
use qap::plan::NodeId;
use qap::prelude::*;
use qap::types::tcp_schema;

/// Hosts of the threaded and TCP workloads: the central tier plus one
/// leaf host, sized to a 2-vCPU machine.
const SMALL_CLUSTER: usize = 2;
/// Hosts of the simulator workload: the paper's cluster size.
const PAPER_CLUSTER: usize = 4;

/// Trace shape shared by both generators: 10 one-minute epochs of
/// 10,000 flows each, about 0.52 M packets, cut to exactly `PACKETS`
/// (about 42 MB of `.qtr`) so every seed has the same input size.
const EPOCHS: u64 = 10;
const FLOWS_PER_EPOCH: usize = 10_000;
const PACKETS: usize = 480_000;
/// Skew ramp: hot keys per phase, and epochs per phase.
const HOT_KEYS: usize = 8;
const DRIFT_EPOCHS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §6.1 `Partitioned` on the channel-threaded runner: leaf work.
    Sec61PartitionedThreaded,
    /// §6.2 `Naive` over TCP loopback: raw tuples cross the wire.
    Sec62NaiveTcp,
    /// §6.1 query, splitter constrained to `{srcIP}`, skew-ramp trace,
    /// adaptive re-partitioning on the threaded runner.
    SkewAdaptiveThreaded,
    /// §6.2 `Partitioned (optimal)` on the deterministic simulator.
    Sec62PartitionedSim,
}

/// Which cluster entry point a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    Sim,
    Threaded,
    Tcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sec61PartitionedThreaded,
        Workload::Sec62NaiveTcp,
        Workload::SkewAdaptiveThreaded,
        Workload::Sec62PartitionedSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sec61PartitionedThreaded => "sec61-partitioned-threaded",
            Workload::Sec62NaiveTcp => "sec62-naive-tcp",
            Workload::SkewAdaptiveThreaded => "skew-adaptive-threaded",
            Workload::Sec62PartitionedSim => "sec62-partitioned-sim",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn runner(self) -> Runner {
        match self {
            Workload::Sec61PartitionedThreaded | Workload::SkewAdaptiveThreaded => Runner::Threaded,
            Workload::Sec62NaiveTcp => Runner::Tcp,
            Workload::Sec62PartitionedSim => Runner::Sim,
        }
    }

    pub fn adaptive(self) -> bool {
        self == Workload::SkewAdaptiveThreaded
    }

    fn scenario(self) -> Scenario {
        match self {
            Workload::Sec61PartitionedThreaded | Workload::SkewAdaptiveThreaded => {
                Scenario::SimpleAgg
            }
            Workload::Sec62NaiveTcp | Workload::Sec62PartitionedSim => Scenario::QuerySet,
        }
    }

    /// Set-up, first half: parse the scenario's GSQL into a query DAG.
    pub fn parse_queries(self) -> QueryDag {
        self.scenario().dag()
    }

    /// Set-up, second half: run the partitioning analysis, pick the
    /// workload's deployment and lower the DAG to a distributed plan.
    pub fn plan(self, dag: &QueryDag) -> Result<DistributedPlan, String> {
        let analysis = choose_partitioning(dag, &UniformStats::default(), &CostModel::default());
        std::hint::black_box(&analysis);
        let (partitioning, opt) = match self {
            Workload::Sec61PartitionedThreaded => {
                self.scenario().deployment("Partitioned", SMALL_CLUSTER)
            }
            Workload::Sec62NaiveTcp => self.scenario().deployment("Naive", SMALL_CLUSTER),
            // Constrained hardware: the splitter can only hash srcIP,
            // whatever the analysis recommends.
            Workload::SkewAdaptiveThreaded => (
                Partitioning::hash(PartitionSet::from_columns(["srcIP"]), SMALL_CLUSTER),
                OptimizerConfig::full(),
            ),
            Workload::Sec62PartitionedSim => self
                .scenario()
                .deployment("Partitioned (optimal)", PAPER_CLUSTER),
        };
        optimize(dag, &partitioning, &opt).map_err(|e| format!("optimize: {e}"))
    }

    pub fn sim_config(self) -> SimConfig {
        let mut sim = SimConfig::default();
        if self.adaptive() {
            // A sample period shorter than the 60 s window, so a
            // migration lands mid-window and ships live group state.
            sim.transport = sim
                .transport
                .with_rebalance(RebalanceConfig::adaptive().with_sample_secs(45));
        }
        sim
    }

    /// Generates the workload's trace for `seed`: its first `PACKETS`
    /// packets in time order.
    pub fn generate_trace(self, plan: &DistributedPlan, seed: u64) -> Result<Vec<Tuple>, String> {
        let base = TraceConfig {
            seed,
            epochs: EPOCHS,
            flows_per_epoch: FLOWS_PER_EPOCH,
            spread_ips: true,
            ..TraceConfig::default()
        };
        let mut trace = if self.adaptive() {
            let phases = EPOCHS.div_ceil(DRIFT_EPOCHS) as usize;
            generate_skew_ramp(&SkewRampConfig {
                base,
                hot_fraction: 0.8,
                drift_period: DRIFT_EPOCHS,
                hot_hosts: Some(hot_sets_on_one_leaf(plan, seed, phases)?),
                ..SkewRampConfig::default()
            })
        } else {
            generate(&base)
        };
        if trace.len() < PACKETS {
            return Err(format!(
                "seed {seed} generated {} packets, fewer than {PACKETS}",
                trace.len()
            ));
        }
        trace.truncate(PACKETS);
        Ok(trace)
    }

    /// The workload's validity rule, beyond matching the reference.
    pub fn check_valid(self, r: &SimResult) -> Result<(), String> {
        if !r.failures.is_empty() {
            return Err(format!("host failures: {:?}", r.failures));
        }
        let m = &r.metrics;
        if self.adaptive() {
            if let Some(why) = &m.rebalance_fallback {
                return Err(format!("rebalance fell back to static: {why}"));
            }
            if m.repartitions == 0 || m.migrated_keys == 0 {
                return Err(format!(
                    "expected a migration, got {} repartitions moving {} keys",
                    m.repartitions, m.migrated_keys
                ));
            }
        } else if m.repartitions != 0 {
            return Err(format!("{} repartitions on a static run", m.repartitions));
        }
        Ok(())
    }
}

/// Per-phase hot source addresses that all route to one leaf host
/// under the static assignment, drawn from a seed-dependent range: the
/// adversarial skew that makes the adaptive splitter migrate on every
/// seed.
fn hot_sets_on_one_leaf(
    plan: &DistributedPlan,
    seed: u64,
    phases: usize,
) -> Result<Vec<Vec<u64>>, String> {
    let SplitStrategy::Hash(set) = &plan.partitioning.strategy else {
        return Err("skew workload needs a hash splitter".into());
    };
    let splitter = HashPartitioner::new(set, &tcp_schema(), plan.partitioning.partitions)
        .map_err(|e| format!("splitter: {e}"))?;
    let victim = (0..plan.partitioning.hosts)
        .find(|&h| h != plan.partitioning.aggregator_host)
        .ok_or("skew workload needs a leaf host")?;
    // Upper half of the address space, offset by the seed.
    let start = 0x8000_0000 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
    let mut sets = vec![Vec::with_capacity(HOT_KEYS); phases];
    let mut phase = 0;
    for ip in start.. {
        let mut probe = vec![Value::UInt(0); 9];
        probe[2] = Value::UInt(ip);
        let p = splitter.partition(&Tuple::new(probe));
        if plan.partitioning.host_of_partition(p) == victim {
            sets[phase].push(ip);
            phase = (phase + 1) % phases;
            if sets.iter().all(|s| s.len() >= HOT_KEYS) {
                break;
            }
        }
    }
    Ok(sets)
}

/// The centralized result of the workload's queries, each output's
/// rows sorted: what every distributed run must reproduce.
pub struct Reference {
    outputs: Vec<(NodeId, Vec<Tuple>)>,
}

impl Reference {
    pub fn compute(dag: &QueryDag, trace: Vec<Tuple>) -> Result<Reference, String> {
        let outputs = run_logical(dag, trace).map_err(|e| format!("run_logical: {e}"))?;
        Ok(Reference::new(outputs))
    }

    /// Wraps `run_logical`'s outputs.
    pub fn new(outputs: Vec<(NodeId, Vec<Tuple>)>) -> Reference {
        Reference {
            outputs: outputs
                .into_iter()
                .map(|(id, rows)| (id, sorted(rows)))
                .collect(),
        }
    }

    pub fn rows(&self) -> usize {
        self.outputs.iter().map(|(_, r)| r.len()).sum()
    }

    /// Compares a run's sorted per-query outputs with the reference.
    pub fn check(&self, plan: &DistributedPlan, r: &SimResult) -> Result<(), String> {
        if r.outputs.len() != plan.outputs.len() {
            return Err(format!(
                "{} outputs for {} plan outputs",
                r.outputs.len(),
                plan.outputs.len()
            ));
        }
        for (out, (name, rows)) in plan.outputs.iter().zip(&r.outputs) {
            let (_, expected) = self
                .outputs
                .iter()
                .find(|(id, _)| *id == out.logical)
                .ok_or_else(|| format!("no reference for output {name}"))?;
            if &sorted(rows.clone()) != expected {
                return Err(format!(
                    "output {name}: {} rows differ from the {} reference rows",
                    rows.len(),
                    expected.len()
                ));
            }
        }
        Ok(())
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        a.values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// In-process TCP leaf hosts for one run: loopback listeners bound
/// and `serve_host(once)` threads started before the timer.
pub struct Hosts {
    addrs: Vec<HostAddr>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

impl Hosts {
    pub fn start(plan: &DistributedPlan, sim: &SimConfig) -> Result<Hosts, String> {
        let mut hosts = Hosts {
            addrs: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..remote_host_count(plan, sim) {
            let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into()))?;
            hosts.addrs.push(listener.local_addr()?);
            hosts.threads.push(std::thread::spawn(move || {
                serve_host(&listener, &HostServerConfig { once: true })
            }));
        }
        Ok(hosts)
    }

    /// Waits for every host thread. A host the coordinator never
    /// reached (a failed run) still blocks in `accept`, so it gets an
    /// empty connection that ends its session.
    pub fn join(self) -> Result<(), String> {
        let mut errors = Vec::new();
        for (addr, t) in self.addrs.iter().zip(self.threads) {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !t.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !t.is_finished() {
                if let HostAddr::Tcp(a) = addr {
                    drop(TcpStream::connect(a));
                }
            }
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("host {addr}: {e}")),
                Err(_) => errors.push(format!("host {addr} panicked")),
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

/// Calls the workload's runner on a decoded trace.
pub fn execute(
    w: Workload,
    plan: &DistributedPlan,
    trace: &[Tuple],
    sim: &SimConfig,
    hosts: Option<&Hosts>,
) -> Result<SimResult, String> {
    let r = match (w.runner(), hosts) {
        (Runner::Sim, _) => run_distributed(plan, trace, sim),
        (Runner::Threaded, _) => run_distributed_threaded(plan, trace, sim),
        (Runner::Tcp, Some(h)) => run_distributed_remote(plan, trace, sim, &h.addrs),
        (Runner::Tcp, None) => return Err("TCP run without hosts".into()),
    };
    r.map_err(|e| format!("runner: {e}"))
}

/// A workload's input file, written once per seed outside the timed
/// region.
pub struct TraceFile {
    pub path: PathBuf,
    pub packets: usize,
    pub flows: usize,
    pub bytes: u64,
}

impl TraceFile {
    /// Generates the trace, writes it as `.qtr`, then generates and
    /// writes it a second time to check the seed reproduces the file
    /// byte for byte.
    pub fn create(
        w: Workload,
        plan: &DistributedPlan,
        seed: u64,
        dir: &Path,
    ) -> Result<TraceFile, String> {
        let kind = if w.adaptive() { "skew" } else { "uniform" };
        let path = dir.join(format!("{kind}-{seed}.qtr"));
        let again = dir.join(format!("{kind}-{seed}.check.qtr"));
        let trace = w.generate_trace(plan, seed)?;
        let s = stats(&trace);
        write_trace(&path, &trace).map_err(|e| format!("write {}: {e}", path.display()))?;
        drop(trace);
        write_trace(&again, &w.generate_trace(plan, seed)?)
            .map_err(|e| format!("write {}: {e}", again.display()))?;
        let same = files_equal(&path, &again)?;
        std::fs::remove_file(&again).map_err(|e| format!("remove {}: {e}", again.display()))?;
        if !same {
            return Err(format!("seed {seed} did not reproduce {}", path.display()));
        }
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        Ok(TraceFile {
            path,
            packets: s.packets,
            flows: s.flows,
            bytes,
        })
    }

    pub fn read(&self) -> Result<Vec<Tuple>, String> {
        read_trace(&self.path).map_err(|e| format!("read {}: {e}", self.path.display()))
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn files_equal(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    Ok(read(a)? == read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn hot_sets_all_route_to_one_leaf() {
        let w = Workload::SkewAdaptiveThreaded;
        let plan = w.plan(&w.parse_queries()).unwrap();
        let sets = hot_sets_on_one_leaf(&plan, 7, 3).unwrap();
        assert_eq!(sets.len(), 3);
        let SplitStrategy::Hash(set) = &plan.partitioning.strategy else {
            unreachable!()
        };
        let splitter =
            HashPartitioner::new(set, &tcp_schema(), plan.partitioning.partitions).unwrap();
        let hosts: std::collections::BTreeSet<usize> = sets
            .iter()
            .flatten()
            .map(|&ip| {
                let mut probe = vec![Value::UInt(0); 9];
                probe[2] = Value::UInt(ip);
                let p = splitter.partition(&Tuple::new(probe));
                plan.partitioning.host_of_partition(p)
            })
            .collect();
        assert_eq!(hosts.len(), 1);
        assert!(!hosts.contains(&plan.partitioning.aggregator_host));
        assert_ne!(sets, hot_sets_on_one_leaf(&plan, 8, 3).unwrap());
    }
}
