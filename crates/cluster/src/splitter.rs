//! The splitter: the one epoch loop in front of every runner.
//!
//! The paper puts one splitter in front of the cluster: it partitions
//! the stream once, at line rate, and every host runs its slice of one
//! plan (Sections 1 and 3.3). This module is that splitter for all
//! three runners — the deterministic simulator, the threaded runner
//! and the socket coordinator. It owns:
//!
//! - **deployment** — units ([`compute_units`], [`slice_unit`]), plan
//!   checks and stream geometry ([`Deployment`]);
//! - **routing and staging** — hash or round-robin routing into
//!   per-partition [`ColumnBatch`]es, flushed in scan order per epoch;
//! - **control** — epochs, load counts, key sketch, detector, hot-key
//!   floor and the pinned re-planner;
//! - **migration** — one driver ([`Migration`]) over the runners'
//!   [`Links`], and the engine-side [`flush_extract`]/[`absorb`] pair;
//! - **stitching** — unit results merged into the run's [`SimResult`].
//!
//! A static run is the same loop with the detector off: each stream is
//! one epoch, routed before any unit starts, with no gauges, sketch or
//! bucket counting. A runner keeps only how a staged batch reaches an
//! engine and how migration messages travel.
//!
//! **Handoff rule.** The simulator pushes each batch into its engine
//! the moment it fills ([`Links::push`]); threaded and remote units get
//! each epoch's batches in one message when the epoch closes
//! ([`Links::handoff`]). The central unit (unit 0) is handed its feed
//! at the first close and then starts: with the detector off that is
//! after the whole stream is routed, and with it on the central unit's
//! pinned scans are routed up front (below), so it never waits on the
//! splitter.
//!
//! **Pinning.** Partitions whose scans sit inside the central unit are
//! *pinned*: the central unit consumes boundary frames and takes no
//! migration commands, so the re-planner never moves a bucket onto or
//! off those partitions ([`rebalance::plan_assignment_pinned`]) and
//! their feed is fixed by the initial table. Under the host-serial
//! decomposition that is the aggregator host's share; under the
//! partition-parallel one, and in the simulator's single engine,
//! nothing is pinned.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use qap_exec::{Engine, ExecError, ExecResult, HostFailure, OpCounters, OpMetrics};
use qap_optimizer::{DistributedPlan, PlanOutput, SplitStrategy};
use qap_partition::{HashPartitioner, KeySketch, PartitionSet};
use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::{ColumnBatch, Schema, Tuple, FRAME_HEADER_LEN};

use crate::rebalance::{self, ImbalanceDetector, MigrationSpec, RebalanceConfig};
use crate::sim::{account, trace_duration, SimConfig, SimResult};
use crate::transport::{EdgeTransport, TransportConfig, TransportMetrics};

/// One execution unit's slice of the plan.
#[derive(Debug)]
pub(crate) struct UnitPlan {
    /// Executing host (for transport attribution).
    pub(crate) host: usize,
    pub(crate) dag: QueryDag,
    /// global node id → local node id.
    pub(crate) local: HashMap<NodeId, NodeId>,
    /// global producer id → local pseudo-source id (remote inputs).
    pub(crate) remote_in: HashMap<NodeId, NodeId>,
    /// Global ids (in this unit) whose output crosses to another unit.
    pub(crate) boundary: Vec<NodeId>,
    /// Plan outputs hosted here: (output index, global node id).
    pub(crate) outputs: Vec<(usize, NodeId)>,
}

/// Clones the sub-plan induced by `nodes` (a deterministic, topo-ordered
/// subset), registering a pseudo-source for every edge arriving from
/// outside the unit.
pub(crate) fn slice_unit(plan: &DistributedPlan, nodes: &[NodeId]) -> ExecResult<UnitPlan> {
    let mut in_unit = vec![false; plan.dag.len()];
    for &id in nodes {
        in_unit[id] = true;
    }
    // An empty node set is a decomposition bug: silently pinning a
    // hostless unit to host 0 would mis-attribute its work (and its
    // failures) — reject it at planning time instead.
    let host = match nodes.first() {
        Some(&id) => plan.host[id],
        None => {
            return Err(ExecError::BadPlan(
                "execution unit has no nodes (empty component in the unit decomposition)".into(),
            ))
        }
    };

    let mut local: HashMap<NodeId, NodeId> = HashMap::new();
    let mut remote_in: HashMap<NodeId, NodeId> = HashMap::new();
    let mut catalog = plan.dag.catalog().clone();

    // First pass: register pseudo-streams for outside producers.
    for id in plan.dag.topo_order() {
        if !in_unit[id] {
            continue;
        }
        for child in plan.dag.node(id).children() {
            if !in_unit[child] && !remote_in.contains_key(&child) {
                let name = format!("__remote_{child}");
                catalog
                    .register(plan.dag.schema(child).renamed(name))
                    .map_err(|e| ExecError::BadPlan(format!("pseudo-stream clash: {e}")))?;
                remote_in.insert(child, usize::MAX); // placeholder
            }
        }
    }
    let mut dag = QueryDag::new(catalog);
    // Deterministic pseudo-source numbering: ascending producer id.
    let mut producers: Vec<NodeId> = remote_in.keys().copied().collect();
    producers.sort_unstable();
    for child in producers {
        let sid = dag
            .add_source(&format!("__remote_{child}"))
            .map_err(|e| ExecError::BadPlan(format!("pseudo-source: {e}")))?;
        remote_in.insert(child, sid);
    }

    // Second pass: clone this unit's nodes with remapped children.
    for id in plan.dag.topo_order() {
        if !in_unit[id] {
            continue;
        }
        let remap = |c: NodeId| -> NodeId {
            if in_unit[c] {
                local[&c]
            } else {
                remote_in[&c]
            }
        };
        let mut node = plan.dag.node(id).clone();
        match &mut node {
            LogicalNode::Source { stream, partition } => {
                let lid = dag
                    .add_partition_source(stream, partition.expect("physical scan"))
                    .map_err(|e| ExecError::BadPlan(e.to_string()))?;
                local.insert(id, lid);
                continue;
            }
            LogicalNode::SelectProject { input, .. } | LogicalNode::Aggregate { input, .. } => {
                *input = remap(*input);
            }
            LogicalNode::Join { left, right, .. } => {
                *left = remap(*left);
                *right = remap(*right);
            }
            LogicalNode::Merge { inputs } => inputs.iter_mut().for_each(|c| *c = remap(*c)),
        }
        let lid = dag
            .add_node(node)
            .map_err(|e| ExecError::BadPlan(format!("unit subplan: {e}")))?;
        local.insert(id, lid);
    }

    // Boundary producers: nodes here consumed outside the unit.
    let mut boundary = Vec::new();
    for id in plan.dag.topo_order() {
        if !in_unit[id] {
            continue;
        }
        let crosses = plan.dag.parents(id).into_iter().any(|p| !in_unit[p]);
        if crosses {
            boundary.push(id);
        }
    }
    let outputs = plan
        .outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| in_unit[o.node])
        .map(|(i, o)| (i, o.node))
        .collect();

    Ok(UnitPlan {
        host,
        dag,
        local,
        remote_in,
        boundary,
        outputs,
    })
}

/// Splits the plan into execution units: element 0 is the central unit
/// (run by the calling thread), the rest are leaf units (one worker
/// thread each). Falls back to one-unit-per-host when the
/// partition-parallel decomposition is not applicable (no central tier,
/// central nodes off the aggregator host, or leaf pipelines that span
/// hosts or consume central output).
pub(crate) fn compute_units(
    plan: &DistributedPlan,
    agg: usize,
    transport: &TransportConfig,
) -> Vec<Vec<NodeId>> {
    let n = plan.dag.len();
    let parallel_ok = transport.partition_parallel && {
        let mut any_central = false;
        let mut ok = true;
        for id in plan.dag.topo_order() {
            if plan.central[id] {
                any_central = true;
                if plan.host[id] != agg {
                    ok = false;
                }
            } else {
                for c in plan.dag.node(id).children() {
                    if plan.central[c] || plan.host[c] != plan.host[id] {
                        ok = false;
                    }
                }
            }
        }
        ok && any_central
    };

    if parallel_ok {
        // Union-find over the non-central subgraph: each connected
        // component is an independently schedulable leaf pipeline.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        for id in plan.dag.topo_order() {
            if plan.central[id] {
                continue;
            }
            for c in plan.dag.node(id).children() {
                if !plan.central[c] {
                    let (a, b) = (find(&mut uf, id), find(&mut uf, c));
                    uf[a.max(b)] = a.min(b);
                }
            }
        }
        let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
        for id in plan.dag.topo_order() {
            if !plan.central[id] {
                groups.entry(find(&mut uf, id)).or_default().push(id);
            }
        }
        let central: Vec<NodeId> = plan
            .dag
            .topo_order()
            .filter(|&id| plan.central[id])
            .collect();
        let mut leaves: Vec<Vec<NodeId>> = groups.into_values().collect();
        // Deterministic unit order: by smallest member id.
        leaves.sort_unstable_by_key(|g| g[0]);
        let mut units = vec![central];
        units.extend(leaves);
        units
    } else {
        // Host-serial baseline: the aggregator host is the central
        // unit, every other host one leaf unit.
        let hosts = plan.partitioning.hosts;
        let mut per_host: Vec<Vec<NodeId>> = vec![Vec::new(); hosts];
        for id in plan.dag.topo_order() {
            per_host[plan.host[id]].push(id);
        }
        let central = std::mem::take(&mut per_host[agg]);
        let mut units = vec![central];
        units.extend(per_host.into_iter().filter(|u| !u.is_empty()));
        units
    }
}

/// The name of the single stream a plan reads — the one trace the
/// single-feed entry points replay.
pub(crate) fn single_stream(plan: &DistributedPlan) -> ExecResult<String> {
    let mut streams: Vec<&str> = Vec::new();
    for id in plan.dag.topo_order() {
        if let LogicalNode::Source { stream, .. } = plan.dag.node(id) {
            if !streams.iter().any(|s| s.eq_ignore_ascii_case(stream)) {
                streams.push(stream);
            }
        }
    }
    match streams[..] {
        [stream] => Ok(stream.to_string()),
        _ => Err(ExecError::BadPlan(format!(
            "plan reads {} streams; use run_distributed_multi and feed each",
            streams.len()
        ))),
    }
}

/// One fed source stream: its schema, trace and partition → scan map.
struct Stream<'a> {
    schema: Schema,
    trace: &'a [Tuple],
    scan_of: Vec<NodeId>,
}

/// A plan laid out on its execution units, with the geometry the
/// splitter routes by.
pub(crate) struct Deployment<'a> {
    pub(crate) plan: &'a DistributedPlan,
    /// Unit slices, central unit first. Empty when one engine runs the
    /// whole plan (the simulator), which then is the only unit, 0.
    pub(crate) slices: Vec<UnitPlan>,
    /// Global node → unit.
    unit_of: Vec<usize>,
    streams: Vec<Stream<'a>>,
}

impl<'a> Deployment<'a> {
    /// Lays `plan` out for its feeds (ignoring streams it never reads):
    /// as one engine when `units` is `None`, else decomposed under that
    /// transport. Leaf units may consume no remote streams and the
    /// central unit may ship no boundary output: either would deadlock
    /// the single rendezvous at the central unit.
    pub(crate) fn new(
        plan: &'a DistributedPlan,
        feeds: &[(&str, &'a [Tuple])],
        units: Option<&TransportConfig>,
    ) -> ExecResult<Self> {
        let m = plan.partitioning.partitions;
        let mut scans: HashMap<String, Vec<Option<NodeId>>> = HashMap::new();
        for id in plan.dag.topo_order() {
            if let LogicalNode::Source { stream, partition } = plan.dag.node(id) {
                let p = partition.ok_or_else(|| {
                    ExecError::BadPlan("distributed plan contains an unpartitioned source".into())
                })? as usize;
                let of = scans
                    .entry(stream.to_ascii_lowercase())
                    .or_insert_with(|| vec![None; m]);
                *of.get_mut(p).ok_or_else(|| {
                    ExecError::BadPlan(format!("scan of partition {p} beyond {m} partitions"))
                })? = Some(id);
            }
        }
        let fed = |name: &&String| feeds.iter().any(|(s, _)| s.eq_ignore_ascii_case(name));
        if let Some(name) = scans.keys().filter(|n| !fed(n)).min() {
            return Err(ExecError::BadPlan(format!(
                "plan reads stream '{name}' but no feed was provided"
            )));
        }
        let mut streams = Vec::new();
        for &(name, trace) in feeds {
            let Some(of) = scans.get(&name.to_ascii_lowercase()) else {
                continue;
            };
            let scan_of = of
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    s.ok_or_else(|| {
                        ExecError::BadPlan(format!("plan has no scan for partition {p}"))
                    })
                })
                .collect::<ExecResult<_>>()?;
            let schema = plan
                .dag
                .catalog()
                .get(name)
                .expect("plan catalog has its stream")
                .clone();
            streams.push(Stream {
                schema,
                trace,
                scan_of,
            });
        }

        let mut unit_of = vec![0; plan.dag.len()];
        let mut slices = Vec::new();
        if let Some(transport) = units {
            let nodes = compute_units(plan, plan.partitioning.aggregator_host, transport);
            for (u, unit) in nodes.iter().enumerate() {
                for &id in unit {
                    unit_of[id] = u;
                }
                let slice = slice_unit(plan, unit)?;
                if u != 0 && !slice.remote_in.is_empty() {
                    return Err(ExecError::BadPlan(format!(
                        "leaf unit on host {} unexpectedly consumes remote streams",
                        slice.host
                    )));
                }
                if u == 0 && !slice.boundary.is_empty() {
                    return Err(ExecError::BadPlan(
                        "central unit unexpectedly ships boundary output".into(),
                    ));
                }
                slices.push(slice);
            }
        }
        Ok(Deployment {
            plan,
            slices,
            unit_of,
            streams,
        })
    }

    /// Checks a socket run got one host address per leaf unit.
    pub(crate) fn check_leaf_hosts(&self, addrs: usize) -> ExecResult<()> {
        let leaves = self.slices.len().saturating_sub(1);
        if addrs == leaves {
            return Ok(());
        }
        Err(ExecError::BadPlan(format!(
            "plan needs {leaves} leaf host processes, got {addrs} addresses"
        )))
    }

    /// The run's splitter: under a rebalance controller when one is
    /// asked for and the plan is eligible (else the reason is recorded).
    pub(crate) fn splitter(&self, cfg: &SimConfig) -> Splitter<'_, 'a> {
        let reb = cfg.transport.rebalance;
        let (control, fallback) = match reb.enabled.then(|| self.control(reb)) {
            Some(Ok(c)) => (Some(c), None),
            Some(Err(reason)) => (None, Some(reason)),
            None => (None, None),
        };
        Splitter {
            dep: self,
            max: cfg.batch.max_batch.max(1),
            control,
            out: Rebalanced {
                peak_imbalance: 1.0,
                fallback,
                ..Rebalanced::default()
            },
        }
    }

    /// The rebalance controller for this deployment, or why the plan
    /// must run as one epoch.
    fn control(&self, reb: RebalanceConfig) -> Result<Control, String> {
        let spec = rebalance::migration_spec(self.plan)?;
        let [s] = &self.streams[..] else {
            return Err("adaptive splitter supports a single source stream".into());
        };
        let time = *s
            .schema
            .temporal_indices()
            .first()
            .ok_or_else(|| format!("stream {} has no time column", s.schema.name()))?;
        let SplitStrategy::Hash(set) = &self.plan.partitioning.strategy else {
            unreachable!("migration_spec admits only hash strategies");
        };
        let split = &self.plan.partitioning;
        let geometry = (split.partitions, reb.buckets_per_partition);
        let pin_central = self.slices.len() > 1;
        let migration = Migration::new(spec, set, geometry, self.unit_of.clone(), pin_central)?;
        let control = Control {
            reb,
            host_of: (0..split.partitions)
                .map(|p| split.host_of_partition(p))
                .collect(),
            detector: ImbalanceDetector::new(reb),
            sketch: KeySketch::with_defaults(),
            host_tuples: vec![0; split.hosts],
            bucket_tuples: vec![0; split.partitions * reb.buckets_per_partition.max(1)],
            migration,
            live: true,
            time,
        };
        Ok(control)
    }

    /// Stitches per-unit results into the run's result, with the
    /// measured transport when the runner has one. Without
    /// [`TransportConfig::partial_results`] the first failure is the
    /// run's error.
    pub(crate) fn finish(
        &self,
        cfg: &SimConfig,
        runs: Vec<(usize, UnitRun)>,
        failures: Vec<HostFailure>,
        link: Option<LinkMeasure>,
        reb: Rebalanced,
    ) -> ExecResult<SimResult> {
        let failures = if cfg.transport.partial_results {
            failures
        } else if let Some(first) = failures.into_iter().next() {
            return Err(first.into());
        } else {
            Vec::new()
        };
        let plan = self.plan;
        let mut counters = vec![OpCounters::default(); plan.dag.len()];
        let mut node_metrics = vec![OpMetrics::default(); plan.dag.len()];
        let name = |o: &PlanOutput| o.name.clone().unwrap_or(format!("query{}", o.logical));
        let mut outputs: Vec<(String, Vec<Tuple>)> =
            plan.outputs.iter().map(|o| (name(o), Vec::new())).collect();
        let (mut edges, mut stalls, mut dropped) = (Vec::new(), 0, 0);
        for (u, run) in runs {
            match self.slices.get(u) {
                Some(slice) => {
                    for (&global, &local) in &slice.local {
                        counters[global] = run.counters[local];
                        node_metrics[global] = run.node_metrics[local].clone();
                    }
                }
                None => {
                    counters = run.counters;
                    node_metrics = run.node_metrics;
                }
            }
            for (idx, rows) in run.outputs {
                outputs[idx].1 = rows;
            }
            edges.extend(run.edges);
            stalls += run.stalls;
            dropped += run.dropped;
        }
        let duration = self
            .streams
            .iter()
            .map(|s| trace_duration(&s.schema, s.trace))
            .fold(1.0, f64::max);
        let mut metrics = account(plan, &counters, duration, cfg);
        if let Some(link) = link {
            edges.sort_unstable_by_key(|e: &EdgeTransport| e.producer);
            let frames: u64 = edges.iter().map(|e| e.frames).sum();
            let payload: u64 = edges.iter().map(|e| e.bytes).sum();
            let retries = edges.iter().map(|e| e.retries).sum();
            metrics.boundary_queue_peak = link.queue_peak;
            metrics.transport = TransportMetrics {
                edges,
                frames,
                frame_bytes: payload + frames * FRAME_HEADER_LEN as u64,
                backpressure_stalls: stalls,
                queue_peak: link.queue_peak,
                retries,
                frames_dropped: dropped,
                frames_corrupt_dropped: link.corrupt_dropped,
                channel_capacity: cfg.transport.channel_capacity.max(1),
                frame_batch: cfg.transport.frame_batch.max(1),
            };
        }
        metrics.repartitions = reb.repartitions;
        metrics.migrated_keys = reb.migrated;
        metrics.migration_pause_ms = reb.pause_ms;
        metrics.load_imbalance = reb.peak_imbalance;
        metrics.rebalance_fallback = reb.fallback;
        metrics.output_rows = outputs
            .iter()
            .map(|(n, rows)| (n.clone(), rows.len() as u64))
            .collect();
        Ok(SimResult {
            metrics,
            outputs,
            counters,
            node_metrics,
            failures,
        })
    }
}

/// One run's splitter over a [`Deployment`].
pub(crate) struct Splitter<'d, 'a> {
    dep: &'d Deployment<'a>,
    max: usize,
    control: Option<Control>,
    out: Rebalanced,
}

impl Splitter<'_, '_> {
    /// Whether the run is cut into epochs; without, every stream is
    /// routed before any unit starts.
    pub(crate) fn epochs(&self) -> bool {
        self.control.is_some()
    }

    /// Routes every feed to the runner's units through `links`.
    pub(crate) fn run<L: Links>(mut self, links: &mut L) -> ExecResult<Rebalanced> {
        let (dep, max) = (self.dep, self.max);
        let mut first = true;
        for s in &dep.streams {
            // A controller only runs on single-stream plans.
            let mut control = self.control.as_mut();
            let buckets = control.as_ref().map(|c| c.reb.buckets_per_partition);
            let mut r = Router::new(dep, s, buckets)?;
            // Under a controller, partitions whose scans sit inside the
            // central unit of a multi-unit deployment are pinned. Their
            // feed is fixed by the initial table: route it up front so
            // the central unit never waits on the epochs.
            let pinned: Vec<bool> = (s.scan_of.iter())
                .map(|&scan| control.is_some() && dep.slices.len() > 1 && dep.unit_of[scan] == 0)
                .collect();
            let pinned_host = (pinned.iter().position(|&x| x))
                .map(|p| dep.plan.partitioning.host_of_partition(p));
            if pinned_host.is_some() {
                r.route(s.trace, max, None, |p| pinned[p], links)?;
                r.close(first, links)?;
                first = false;
            }
            // Epochs of `sample_secs` trace time under a controller;
            // without one the stream is a single epoch.
            let mut epoch_end = control.as_ref().map_or(0, |c| {
                s.trace.first().map_or(0, |t| c.time(t)) + c.reb.sample_secs
            });
            let mut start = 0;
            loop {
                let end = match &control {
                    Some(c) => (s.trace[start..].iter())
                        .position(|t| c.time(t) >= epoch_end)
                        .map_or(s.trace.len(), |n| start + n),
                    None => s.trace.len(),
                };
                let counts = control.as_deref_mut();
                r.route(&s.trace[start..end], max, counts, |p| !pinned[p], links)?;
                r.close(first, links)?;
                first = false;
                if end == s.trace.len() {
                    break;
                }
                let c = control
                    .as_deref_mut()
                    .expect("only a controller cuts epochs");
                let splitter = r.hash.as_mut().expect("control routes by hash");
                c.end_epoch(splitter, pinned_host, epoch_end, links, &mut self.out);
                start = end;
                epoch_end += c.reb.sample_secs;
            }
        }
        Ok(self.out)
    }
}

/// What the rebalance controller did over one run.
#[derive(Default)]
pub(crate) struct Rebalanced {
    repartitions: u64,
    migrated: u64,
    pause_ms: f64,
    /// Peak per-epoch max/mean host load (1.0 when never sampled).
    peak_imbalance: f64,
    fallback: Option<String>,
}

/// Transport quantities only the runner observes.
pub(crate) struct LinkMeasure {
    pub(crate) queue_peak: u64,
    pub(crate) corrupt_dropped: u64,
}

/// One unit's results, in its local node ids; stitched by
/// [`Deployment::finish`].
pub(crate) struct UnitRun {
    pub(crate) counters: Vec<OpCounters>,
    pub(crate) node_metrics: Vec<OpMetrics>,
    /// `(plan output index, rows)`.
    pub(crate) outputs: Vec<(usize, Vec<Tuple>)>,
    pub(crate) edges: Vec<EdgeTransport>,
    /// First-refusal backpressure stalls on this unit's sends.
    pub(crate) stalls: u64,
    /// Frames this unit's fault plan dropped.
    pub(crate) dropped: u64,
}

/// Group-state rows by aggregate node.
pub(crate) type StateRows = Vec<(NodeId, Vec<Tuple>)>;

/// One partition's feed: its (global) scan node and a staged batch.
pub(crate) type Feed = (NodeId, ColumnBatch);

/// How a runner reaches its units: staged batches one way, migration
/// messages both ways. Unit ids index [`Deployment::slices`].
pub(crate) trait Links {
    /// Offers a batch the moment it fills. A runner that consumes it on
    /// the spot (the simulator) returns `true`, possibly leaving a
    /// recycled batch of another arity; others wait for the handoff.
    fn push(&mut self, _unit: usize, _scan: NodeId, _batch: &mut ColumnBatch) -> ExecResult<bool> {
        Ok(false)
    }

    /// Passes `unit` the batches staged for it over one epoch. Unit 0
    /// receives this once, at the first epoch close, and then starts.
    fn handoff(&mut self, unit: usize, batches: Vec<Feed>);

    /// Queues a migration message; `false` means the unit is dead.
    fn send(&mut self, unit: usize, msg: UnitMsg) -> bool;

    /// Awaits the reply to the unit's oldest unanswered message: the
    /// extracted rows (empty for an absorb), or `None` if it died.
    fn reply(&mut self, unit: usize) -> Option<StateRows>;
}

/// A migration message to one unit. Node ids are global.
pub(crate) enum UnitMsg {
    /// [`flush_extract`] at the epoch boundary.
    Extract {
        boundary: u64,
        jobs: Vec<ExtractJob>,
    },
    /// [`absorb`] the shipped state rows.
    Absorb(StateRows),
}

/// One aggregate to drain: the key partitioner bound to the next
/// table, and the partitions the aggregate keeps.
#[derive(Clone)]
pub(crate) struct ExtractJob {
    pub(crate) node: NodeId,
    pub(crate) keyp: HashPartitioner,
    pub(crate) owned: Vec<u32>,
}

/// Feeds a staged batch to a scan as columns, or as rows in row mode;
/// `batch` is left empty.
pub(crate) fn push_feed(
    engine: &mut Engine,
    scan: NodeId,
    batch: &mut ColumnBatch,
    columnar: bool,
) -> ExecResult<()> {
    if columnar {
        return engine.push_columns(scan, batch);
    }
    let rows = &mut batch.to_rows();
    batch.clear();
    engine.push_batch(scan, rows)
}

/// Engine side of a migration, first half: force-close windows before
/// `boundary` on every job's aggregate, then extract the groups whose
/// keys re-route away from its owned partitions. `local` maps a job's
/// node id to the engine's; replies keep the job's ids.
pub(crate) fn flush_extract(
    engine: &mut Engine,
    boundary: u64,
    jobs: &[ExtractJob],
    local: impl Fn(NodeId) -> NodeId,
) -> ExecResult<StateRows> {
    for job in jobs {
        engine.flush_before(local(job.node), boundary)?;
    }
    let mut out = Vec::new();
    for job in jobs {
        let rows = engine.extract_state(local(job.node), &mut |key| {
            let p = job.keyp.partition(&Tuple::new(key.to_vec())) as u32;
            !job.owned.contains(&p)
        });
        if !rows.is_empty() {
            out.push((job.node, rows));
        }
    }
    Ok(out)
}

/// Engine side of a migration, second half: merge shipped state rows
/// into their aggregates.
pub(crate) fn absorb(
    engine: &mut Engine,
    batches: StateRows,
    local: impl Fn(NodeId) -> NodeId,
) -> ExecResult<()> {
    for (node, mut rows) in batches {
        engine.absorb_state(local(node), &mut rows)?;
    }
    Ok(())
}

/// Routing and staging state for one stream.
struct Router {
    /// `None` routes round-robin.
    hash: Option<HashPartitioner>,
    rr: usize,
    arity: usize,
    stage: Vec<ColumnBatch>,
    /// Partition → (scan, unit).
    dest: Vec<(NodeId, usize)>,
    /// Partitions in ascending scan order (the residue flush order).
    order: Vec<usize>,
    /// Per unit, the batches staged this epoch.
    pending: Vec<Vec<Feed>>,
    /// The current chunk, transposed once; cleared between chunks.
    chunk: ColumnBatch,
    /// Per partition, the chunk rows routed to it.
    rows_of: Vec<Vec<u32>>,
    /// `(filling row, partition)` for partitions that fill this chunk.
    fills: Vec<(u32, usize)>,
    parts: Vec<u32>,
    buckets: Vec<u32>,
    hashes: Vec<u64>,
}

impl Router {
    /// A router for `s`; `buckets` selects bucketed hash routing (the
    /// re-plannable table) over the closed-form split.
    fn new(dep: &Deployment, s: &Stream, buckets: Option<usize>) -> ExecResult<Router> {
        let m = s.scan_of.len();
        let hash = match &dep.plan.partitioning.strategy {
            SplitStrategy::RoundRobin => None,
            SplitStrategy::Hash(set) => Some(
                match buckets {
                    Some(k) => HashPartitioner::with_buckets(set, &s.schema, m, k),
                    None => HashPartitioner::new(set, &s.schema, m),
                }
                .map_err(|e| ExecError::BadPlan(format!("unusable partitioning set: {e}")))?,
            ),
        };
        let arity = s.schema.arity();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_unstable_by_key(|&p| s.scan_of[p]);
        Ok(Router {
            hash,
            rr: 0,
            arity,
            stage: (0..m).map(|_| ColumnBatch::new(arity)).collect(),
            dest: s.scan_of.iter().map(|&n| (n, dep.unit_of[n])).collect(),
            order,
            pending: vec![Vec::new(); dep.slices.len().max(1)],
            chunk: ColumnBatch::new(arity),
            rows_of: vec![Vec::new(); m],
            fills: Vec::new(),
            parts: Vec::new(),
            buckets: Vec::new(),
            hashes: Vec::new(),
        })
    }

    /// Routes `rows`, staging those of partitions `keep` selects and
    /// handing each batch on as it reaches `max` rows. `control`, when
    /// present, counts every routed row — kept or not.
    ///
    /// Each chunk of `max` rows is transposed once, into `self.chunk`.
    /// Hashing reads its lanes (string lanes dictionary-encode, so each
    /// distinct value hashes once), bit-identical to per-row hashing;
    /// a chunk whose key lanes cannot be hashed as lanes, or a
    /// round-robin split, assigns row by row instead. Staging then
    /// gathers each partition's rows out of the same lanes.
    fn route<L: Links>(
        &mut self,
        rows: &[Tuple],
        max: usize,
        mut control: Option<&mut Control>,
        keep: impl Fn(usize) -> bool,
        links: &mut L,
    ) -> ExecResult<()> {
        let m = self.stage.len();
        for chunk in rows.chunks(max) {
            self.chunk.clear();
            self.chunk.extend_rows(chunk);
            self.chunk.dict_encode_strings();
            let lane_ok = self.hash.as_ref().is_some_and(|h| {
                h.route_columns_hashed(
                    &self.chunk,
                    &mut self.parts,
                    &mut self.buckets,
                    &mut self.hashes,
                )
            });
            if !lane_ok {
                self.parts.clear();
                for t in chunk {
                    let p = match &self.hash {
                        Some(h) => h.partition(t),
                        None => {
                            let p = self.rr;
                            self.rr = (p + 1) % m;
                            p
                        }
                    };
                    self.parts.push(p as u32);
                }
            }
            if let Some(c) = control.as_deref_mut() {
                let h = self.hash.as_ref().expect("control routes by hash");
                for (i, t) in chunk.iter().enumerate() {
                    let (b, k) = if lane_ok {
                        (self.buckets[i] as usize, self.hashes[i])
                    } else {
                        (h.bucket(t), h.key_hash(t))
                    };
                    c.host_tuples[c.host_of[self.parts[i] as usize]] += 1;
                    c.bucket_tuples[b] += 1;
                    c.sketch.observe(k);
                }
            }
            self.stage_chunk(max, &keep, links)?;
        }
        Ok(())
    }

    /// Stages the routed chunk by gathering each kept partition's rows,
    /// emitting batches in the order per-row staging would. A partition
    /// holds fewer than `max` rows going in and the chunk at most `max`,
    /// so it fills at most once per chunk: filling partitions are
    /// emitted in order of the row that fills them, and the remainders
    /// are gathered after.
    fn stage_chunk<L: Links>(
        &mut self,
        max: usize,
        keep: impl Fn(usize) -> bool,
        links: &mut L,
    ) -> ExecResult<()> {
        self.rows_of.iter_mut().for_each(Vec::clear);
        for (i, &p) in self.parts.iter().enumerate() {
            self.rows_of[p as usize].push(i as u32);
        }
        self.fills.clear();
        for (p, rows) in self.rows_of.iter_mut().enumerate() {
            if !keep(p) {
                rows.clear();
                continue;
            }
            debug_assert!(self.stage[p].rows() < max, "a staged batch reached max");
            let room = max - self.stage[p].rows();
            if let Some(&row) = rows.get(room - 1) {
                self.fills.push((row, p));
            }
        }
        self.fills.sort_unstable();
        for k in 0..self.fills.len() {
            let p = self.fills[k].1;
            let room = max - self.stage[p].rows();
            self.stage[p].extend_gather(&self.chunk, &self.rows_of[p][..room]);
            self.emit(p, links)?;
            self.rows_of[p].drain(..room);
        }
        for (batch, rows) in self.stage.iter_mut().zip(&self.rows_of) {
            batch.extend_gather(&self.chunk, rows);
        }
        Ok(())
    }

    /// Hands partition `p`'s staged batch on, with its string columns
    /// dictionary-encoded (the engines and the wire inherit the codes).
    fn emit<L: Links>(&mut self, p: usize, links: &mut L) -> ExecResult<()> {
        let (scan, unit) = self.dest[p];
        let batch = &mut self.stage[p];
        batch.dict_encode_strings();
        if links.push(unit, scan, batch)? {
            if batch.arity() != self.arity {
                *batch = ColumnBatch::new(self.arity);
            }
        } else {
            let batch = std::mem::replace(batch, ColumnBatch::new(self.arity));
            self.pending[unit].push((scan, batch));
        }
        Ok(())
    }

    /// Closes an epoch: flushes the residue in ascending scan order and
    /// hands units their batches (unit 0 always at the `first` close).
    fn close<L: Links>(&mut self, first: bool, links: &mut L) -> ExecResult<()> {
        for i in 0..self.order.len() {
            let p = self.order[i];
            if self.stage[p].rows() > 0 {
                self.emit(p, links)?;
            }
        }
        for (u, batches) in self.pending.iter_mut().enumerate() {
            if !batches.is_empty() || (u == 0 && first) {
                links.handoff(u, std::mem::take(batches));
            }
        }
        Ok(())
    }
}

/// The rebalance controller's state across epochs.
struct Control {
    reb: RebalanceConfig,
    /// Partition → host.
    host_of: Vec<usize>,
    detector: ImbalanceDetector,
    sketch: KeySketch,
    host_tuples: Vec<u64>,
    bucket_tuples: Vec<u64>,
    migration: Migration,
    /// Cleared once a unit dies mid-migration: the fleet's state can no
    /// longer move consistently.
    live: bool,
    /// The stream's time column.
    time: usize,
}

impl Control {
    fn time(&self, t: &Tuple) -> u64 {
        t.get(self.time).as_u64().unwrap_or(0)
    }

    /// Reads the epoch's gauges; when the detector fires and the
    /// hottest key leaves a move worth making, re-plans and migrates.
    fn end_epoch<L: Links>(
        &mut self,
        splitter: &mut HashPartitioner,
        pinned: Option<usize>,
        boundary: u64,
        links: &mut L,
        out: &mut Rebalanced,
    ) {
        out.peak_imbalance = out
            .peak_imbalance
            .max(rebalance::imbalance(&self.host_tuples));
        if self.detector.observe(&self.host_tuples)
            && self.live
            && rebalance::hot_key_floor(&self.sketch, self.host_tuples.len()) < self.reb.threshold
        {
            if let Some(next) = rebalance::plan_assignment_pinned(
                splitter.assignment(),
                &self.bucket_tuples,
                splitter.partitions(),
                self.host_tuples.len(),
                pinned,
            ) {
                let timer = Instant::now();
                let report = self.migration.run(links, splitter, next, boundary);
                out.pause_ms += timer.elapsed().as_secs_f64() * 1e3;
                self.live &= !report.died;
                if let Some(n) = report.moved {
                    out.migrated += n;
                    out.repartitions += 1;
                }
            }
        }
        self.host_tuples.fill(0);
        self.bucket_tuples.fill(0);
        self.sketch.clear();
    }
}

/// Outcome of one drain-and-handoff attempt.
#[derive(Debug, PartialEq)]
pub(crate) struct Migrated {
    /// State rows shipped; `None` if aborted with the old table.
    pub(crate) moved: Option<u64>,
    /// A unit died mid-protocol (its failure surfaces via the runner).
    pub(crate) died: bool,
}

/// The one drain-and-handoff driver, over any runner's [`Links`].
pub(crate) struct Migration {
    spec: MigrationSpec,
    /// Per family, the key partitioner over its aggregate schema.
    keyps: Vec<HashPartitioner>,
    unit_of: Vec<usize>,
    /// Member node → family index.
    family_of: HashMap<NodeId, usize>,
    /// Participating members by unit: `(unit, [(family, member)])`.
    members: Vec<(usize, Vec<(usize, usize)>)>,
}

impl Migration {
    /// The driver for `spec` over units laid out by `unit_of`, routing
    /// state by `set` over `partitions × buckets` buckets. With
    /// `pin_central`, members inside unit 0 take part in no exchange:
    /// their partitions are pinned, so their keys never re-route.
    pub(crate) fn new(
        spec: MigrationSpec,
        set: &PartitionSet,
        (partitions, buckets): (usize, usize),
        unit_of: Vec<usize>,
        pin_central: bool,
    ) -> Result<Migration, String> {
        let keyps = (spec.families.iter())
            .map(|f| HashPartitioner::with_buckets(set, &f.schema, partitions, buckets))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("migration key partitioner: {e}"))?;
        let mut family_of = HashMap::new();
        let mut by_unit: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, fam) in spec.families.iter().enumerate() {
            for (mi, mem) in fam.members.iter().enumerate() {
                family_of.insert(mem.node, fi);
                let u = unit_of[mem.node];
                if !(pin_central && u == 0) {
                    by_unit.entry(u).or_default().push((fi, mi));
                }
            }
        }
        Ok(Migration {
            spec,
            keyps,
            unit_of,
            family_of,
            members: by_unit.into_iter().collect(),
        })
    }

    /// One drain-and-handoff to the `next` table at `boundary`:
    ///
    /// 1. build per-family key partitioners bound to `next`;
    /// 2. send flush+extract to every member unit before awaiting any
    ///    reply — once all are in, the whole fleet is flushed to the
    ///    boundary;
    /// 3. if any unit died, hand the extracted rows back to their
    ///    sources (best effort) and abort with the old table;
    /// 4. otherwise route the rows by `next`, absorb them at their
    ///    destinations in node order, and swap `next` into `splitter` —
    ///    from the first absorb on the table takes effect regardless,
    ///    and rows bound for a dead unit join its failure record.
    pub(crate) fn run<L: Links>(
        &self,
        links: &mut L,
        splitter: &mut HashPartitioner,
        next: Vec<u32>,
        boundary: u64,
    ) -> Migrated {
        let keyps: Vec<HashPartitioner> = (self.keyps.iter())
            .map(|kp| {
                let mut kp = kp.clone();
                kp.set_assignment(next.clone());
                kp
            })
            .collect();

        let mut died = false;
        let mut sent = Vec::new();
        for (u, members) in &self.members {
            let jobs = members
                .iter()
                .map(|&(fi, mi)| {
                    let mem = &self.spec.families[fi].members[mi];
                    ExtractJob {
                        node: mem.node,
                        keyp: keyps[fi].clone(),
                        owned: mem.partitions.clone(),
                    }
                })
                .collect();
            if links.send(*u, UnitMsg::Extract { boundary, jobs }) {
                sent.push(*u);
            } else {
                died = true;
            }
        }
        let mut extracted = Vec::new();
        for u in sent {
            match links.reply(u) {
                Some(rows) => extracted.extend(rows),
                None => died = true,
            }
        }
        if died {
            self.absorb(links, extracted);
            return Migrated {
                moved: None,
                died: true,
            };
        }

        let mut per_node: BTreeMap<NodeId, Vec<Tuple>> = BTreeMap::new();
        for (node, rows) in extracted {
            let fi = self.family_of[&node];
            for row in rows {
                let p = keyps[fi].partition(&row) as u32;
                let dest = self.spec.families[fi]
                    .member_of_partition(p)
                    .expect("spec covers every partition")
                    .node;
                per_node.entry(dest).or_default().push(row);
            }
        }
        let moved = per_node.values().map(|rows| rows.len() as u64).sum();
        let ok = self.absorb(links, per_node);
        splitter.set_assignment(next);
        Migrated {
            moved: Some(moved),
            died: !ok,
        }
    }

    /// Sends each unit its rows as one absorb, then awaits every ack;
    /// `false` if any unit died.
    fn absorb<L: Links>(
        &self,
        links: &mut L,
        rows: impl IntoIterator<Item = (NodeId, Vec<Tuple>)>,
    ) -> bool {
        let mut by_unit: BTreeMap<usize, StateRows> = BTreeMap::new();
        for (node, rows) in rows {
            by_unit
                .entry(self.unit_of[node])
                .or_default()
                .push((node, rows));
        }
        let mut ok = true;
        let mut sent = Vec::new();
        for (u, batches) in by_unit {
            if links.send(u, UnitMsg::Absorb(batches)) {
                sent.push(u);
            } else {
                ok = false;
            }
        }
        for u in sent {
            ok &= links.reply(u).is_some();
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use qap_expr::ScalarExpr;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::{Catalog, ColumnData, Value};

    /// A runner whose units answer migration messages from a script:
    /// extracts return one state row per job, except at `dies`, which
    /// dies mid-extract; absorbs are recorded and acknowledged.
    struct FakeLinks {
        dies: usize,
        replies: HashMap<usize, VecDeque<Option<StateRows>>>,
        absorbed: Vec<(usize, StateRows)>,
    }

    impl Links for FakeLinks {
        fn handoff(&mut self, _unit: usize, _batches: Vec<Feed>) {}

        fn send(&mut self, unit: usize, msg: UnitMsg) -> bool {
            let reply = match msg {
                UnitMsg::Extract { jobs, .. } => (unit != self.dies).then(|| {
                    let row = || vec![Tuple::new(vec![Value::UInt(unit as u64)])];
                    jobs.iter().map(|j| (j.node, row())).collect()
                }),
                UnitMsg::Absorb(batches) => {
                    self.absorbed.push((unit, batches));
                    Some(Vec::new())
                }
            };
            self.replies.entry(unit).or_default().push_back(reply);
            true
        }

        fn reply(&mut self, unit: usize) -> Option<StateRows> {
            self.replies.get_mut(&unit)?.pop_front().flatten()
        }
    }

    #[test]
    fn death_during_extract_hands_rows_back_and_keeps_the_table() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let set = PartitionSet::from_columns(["srcIP"]);
        let plan = optimize(
            &b.build(),
            &Partitioning::hash(set.clone(), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let dep =
            Deployment::new(&plan, &[("TCP", &[])], Some(&TransportConfig::default())).unwrap();
        let m = plan.partitioning.partitions;
        let spec = rebalance::migration_spec(&plan).unwrap();
        let migration = Migration::new(spec, &set, (m, 4), dep.unit_of.clone(), true).unwrap();
        let [_, (second, _), ..] = migration.members[..] else {
            panic!("want two member units, got {:?}", migration.members);
        };
        let mut fake = FakeLinks {
            dies: second,
            replies: HashMap::new(),
            absorbed: Vec::new(),
        };
        let schema = plan.dag.catalog().get("TCP").unwrap().clone();
        let mut splitter = HashPartitioner::with_buckets(&set, &schema, m, 4).unwrap();
        let table = splitter.assignment().to_vec();
        let mut next = table.clone();
        next[0] = (next[0] + 1) % m as u32;

        let report = migration.run(&mut fake, &mut splitter, next, 120);

        assert_eq!(
            report,
            Migrated {
                moved: None,
                died: true
            }
        );
        assert_eq!(splitter.assignment(), &table[..], "table swapped on abort");
        // Every surviving unit's extracted rows went back into it, and
        // only there.
        let handed_back: Vec<_> = (migration.members.iter())
            .filter(|(u, _)| *u != second)
            .map(|(u, members)| {
                let row = || vec![Tuple::new(vec![Value::UInt(*u as u64)])];
                let fams = &migration.spec.families;
                (
                    *u,
                    members
                        .iter()
                        .map(|&(f, i)| (fams[f].members[i].node, row()))
                        .collect(),
                )
            })
            .collect();
        assert!(!handed_back.is_empty());
        assert_eq!(fake.absorbed, handed_back);
    }

    /// One handed-on batch: unit, scan, rows and each column's lane
    /// type and null flag.
    type Handed = (
        usize,
        NodeId,
        Vec<Tuple>,
        Vec<(Option<std::mem::Discriminant<ColumnData>>, bool)>,
    );

    fn handed(unit: usize, scan: NodeId, b: &ColumnBatch) -> Handed {
        let lanes = (b.columns().iter())
            .map(|c| (c.data().map(std::mem::discriminant), c.has_nulls()))
            .collect();
        (unit, scan, b.to_rows(), lanes)
    }

    /// A runner that records every batch in the order it is handed on.
    /// With `consume`, it takes batches as they fill and leaves the
    /// batch cleared with its lanes typed, as an engine recycling its
    /// buffers does; without, batches wait for the epoch's handoff.
    struct Recorder {
        consume: bool,
        log: Vec<Handed>,
    }

    impl Links for Recorder {
        fn push(&mut self, unit: usize, scan: NodeId, batch: &mut ColumnBatch) -> ExecResult<bool> {
            if self.consume {
                self.log.push(handed(unit, scan, batch));
                batch.clear();
            }
            Ok(self.consume)
        }

        fn handoff(&mut self, unit: usize, batches: Vec<Feed>) {
            (self.log).extend(batches.iter().map(|(scan, b)| handed(unit, *scan, b)));
        }

        fn send(&mut self, _unit: usize, _msg: UnitMsg) -> bool {
            unreachable!("no migration without a controller")
        }

        fn reply(&mut self, _unit: usize) -> Option<StateRows> {
            unreachable!("no migration without a controller")
        }
    }

    /// Per-row staging: assign each row on its own and push it into its
    /// partition's batch, emitting the batch the moment it fills. The
    /// chunked, gathering router must hand on exactly these batches.
    fn route_per_row<L: Links>(
        r: &mut Router,
        rows: &[Tuple],
        max: usize,
        keep: impl Fn(usize) -> bool,
        links: &mut L,
    ) {
        let m = r.stage.len();
        for t in rows {
            let p = match &r.hash {
                Some(h) => h.partition(t),
                None => {
                    let p = r.rr;
                    r.rr = (p + 1) % m;
                    p
                }
            };
            if keep(p) {
                r.stage[p].push_row(t);
                if r.stage[p].rows() >= max {
                    r.emit(p, links).unwrap();
                }
            }
        }
    }

    /// Which partitions a route call stages.
    type Keep = fn(usize) -> bool;

    /// Stages `trace` in two route calls and one close, by the router
    /// or by the per-row reference, and returns what was handed on.
    fn staged(
        plan: &DistributedPlan,
        trace: &[Tuple],
        (max, keep, consume): (usize, Keep, bool),
        per_row: bool,
    ) -> Vec<Handed> {
        let dep =
            Deployment::new(plan, &[("TCP", trace)], Some(&TransportConfig::default())).unwrap();
        let mut r = Router::new(&dep, &dep.streams[0], None).unwrap();
        let mut links = Recorder {
            consume,
            log: Vec::new(),
        };
        let (a, b) = trace.split_at(trace.len() / 3);
        for part in [a, b] {
            if per_row {
                route_per_row(&mut r, part, max, keep, &mut links);
            } else {
                r.route(part, max, None, keep, &mut links).unwrap();
            }
        }
        r.close(true, &mut links).unwrap();
        links.log
    }

    #[test]
    fn gather_staging_hands_on_what_per_row_staging_does() {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let queries = b.build();
        let plan = |p: Partitioning| optimize(&queries, &p, &OptimizerConfig::full()).unwrap();
        let masked = ScalarExpr::col("srcIP").mask(0xFFFF_FF00);
        let masked_set = PartitionSet::from_exprs([&masked]);

        let trace = generate(&TraceConfig::tiny(5));
        // Every third source address a string: the masked key no longer
        // hashes as a lane, so routing falls back to row by row.
        let src = qap_types::tcp_schema().index_of("srcIP").unwrap();
        let mixed: Vec<Tuple> = (trace.iter().enumerate())
            .map(|(i, t)| {
                let mut v = t.values().to_vec();
                if i % 3 == 0 {
                    v[src] = Value::from(format!("h{}", i % 5).as_str());
                }
                Tuple::new(v)
            })
            .collect();

        let cases = [
            (
                "hash lanes",
                plan(Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3)),
                &trace,
            ),
            (
                "masked lanes",
                plan(Partitioning::hash(masked_set.clone(), 3)),
                &trace,
            ),
            (
                "row fallback",
                plan(Partitioning::hash(masked_set, 3)),
                &mixed,
            ),
            ("round robin", plan(Partitioning::round_robin(3)), &trace),
        ];
        let keeps: [(&str, Keep); 2] = [("all", |_| true), ("not 1", |p| p != 1)];
        for (name, plan, rows) in &cases {
            for max in [1, 7, 1024] {
                for (keep_name, keep) in keeps {
                    for consume in [false, true] {
                        let run = (max, keep, consume);
                        let want = staged(plan, rows, run, true);
                        let got = staged(plan, rows, run, false);
                        let what =
                            format!("{name}, max {max}, keep {keep_name}, consume {consume}");
                        assert!(want.len() > 1, "{what}: too few batches");
                        assert_eq!(got.len(), want.len(), "{what}: batch count");
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(g == w, "{what}: batch {i} differs");
                        }
                    }
                }
            }
        }
    }
}
