//! Process-level cluster execution: a socket coordinator and the
//! `qapctl host --listen` server loop.
//!
//! [`run_distributed_threaded`](crate::run_distributed_threaded) keeps
//! every execution unit in one process; this module puts each leaf
//! host in its *own* OS process and drives it over a TCP or
//! Unix-domain socket:
//!
//! 1. the coordinator lays the plan out host-serially (the splitter's
//!    deployment, [`crate::splitter`]), connects to each host with
//!    bounded backoff, and performs the versioned handshake
//!    (`Hello`/`Welcome`, [`qap_types::PROTOCOL_VERSION`]);
//! 2. each leaf unit ships as a serialized [`Deploy`] payload
//!    ([`crate::deploy`]); the host rebuilds the sliced DAG by
//!    replaying its build script, so schema inference and local node
//!    ids reproduce exactly;
//! 3. the calling thread runs the splitter; a per-host **writer**
//!    thread turns each epoch's handoff into `Data` frames (one wire
//!    frame per splitter batch — the same batch boundaries the
//!    in-process engines see) and migration messages into `Migrate`
//!    frames, and a per-host **reader pump** forwards the host's
//!    boundary `Data` frames into the same bounded channel the threaded
//!    central unit consumes, so [`run_central_unit`] runs *unchanged*;
//! 4. the host answers each `Migrate` with a `MigrateAck` and, after
//!    `Eos`, streams back a serialized [`UnitOutcome`] — per-node
//!    counters, metrics, outputs, measured edge transport — which the
//!    coordinator stitches into the run's [`SimResult`] exactly as it
//!    stitches in-process worker results.
//!
//! Backpressure composes across the boundary: a slow central consumer
//! blocks the pump, the socket buffer fills, and the host's frame
//! writes block — the socket counterpart of a full bounded channel.
//!
//! Link faults (refused/reset connections, a peer killed mid-frame,
//! handshake rejections, failures a host reports before dying) surface
//! as typed [`FailureCause::Link`] records; corrupt *inner* wire
//! frames keep their in-process attribution
//! ([`FailureCause::Decode`] against the producing host) because the
//! pump forwards payloads untouched. `--partial-results` semantics are
//! identical to the in-process runner's.
//!
//! [`Deploy`]: qap_types::ControlFrame::Deploy

use std::collections::HashMap;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crossbeam::channel as chan;
use qap_exec::{BatchConfig, ExecError, ExecResult, FailureCause, HostFailure};
use qap_obs::SharedGauge;
use qap_optimizer::{DistributedPlan, SplitStrategy};
use qap_partition::HashPartitioner;
use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::{
    encode_batch, encode_column_batch, Bytes, BytesMut, Catalog, ControlFrame, Tuple, ERROR_DEPLOY,
    ERROR_EXEC, ERROR_VERSION, PROTOCOL_VERSION,
};

use crate::deploy::{
    decode_migrate_cmd, decode_migrate_reply, decode_remote_unit, decode_unit_outcome,
    encode_migrate_cmd, encode_migrate_reply, encode_remote_unit, encode_unit_outcome, MigrateCmd,
    RemoteUnit, UnitOutcome,
};
use crate::link::{
    read_control, write_control, ChannelTransport, DuplexStream, FrameSink, HostAddr, HostListener,
    SendOutcome, StreamSink, Transport,
};
use crate::sim::{SimConfig, SimResult};
use crate::splitter::{
    compute_units, single_stream, Deployment, ExtractJob, Feed, LinkMeasure, Links, StateRows,
    UnitMsg, UnitPlan, UnitRun,
};
use crate::threaded::{panic_message, run_central_unit, split_beside_central, Leaf, TxShared};

/// How long a handshake step may block before the coordinator declares
/// the peer dead (used when `send_timeout_ms` is 0).
const HANDSHAKE_FALLBACK_MS: u64 = 10_000;

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Builds the deployment payload for one leaf slice.
fn remote_unit_of(
    plan: &DistributedPlan,
    slice: &UnitPlan,
    cfg: &SimConfig,
) -> ExecResult<RemoteUnit> {
    let transport = cfg.transport;
    let mut schemas: Vec<_> = plan.dag.catalog().schemas().cloned().collect();
    schemas.sort_by(|a, b| {
        a.name()
            .to_ascii_lowercase()
            .cmp(&b.name().to_ascii_lowercase())
    });
    let nodes: Vec<LogicalNode> = {
        // Local dag nodes in id order: replaying this list reproduces
        // the dag (ids are assigned sequentially by insertion).
        let dag = &slice.dag;
        (0..dag.len()).map(|id| dag.node(id).clone()).collect()
    };
    let mut scans: Vec<(u32, u32)> = slice
        .local
        .iter()
        .filter(|(&g, _)| plan.dag.node(g).is_source())
        .map(|(&g, &l)| (g as u32, l as u32))
        .collect();
    scans.sort_unstable();
    let boundary = slice
        .boundary
        .iter()
        .map(|&g| (g as u32, slice.local[&g] as u32))
        .collect();
    let outputs = slice
        .outputs
        .iter()
        .map(|&(idx, g)| (idx as u32, slice.local[&g] as u32))
        .collect();
    Ok(RemoteUnit {
        host: slice.host as u32,
        schemas,
        nodes,
        scans,
        boundary,
        outputs,
        max_batch: cfg.batch.max_batch as u32,
        frame_batch: transport.frame_batch.max(1) as u32,
        columnar: transport.columnar,
        send_timeout_ms: transport.send_timeout_ms,
        fault: transport.fault,
    })
}

/// One connected, deployed host session on the coordinator side.
struct HostSession {
    /// Index into `slices` (≥ 1; 0 is the central unit).
    unit: usize,
    /// Cluster host id.
    host: usize,
    stream: DuplexStream,
}

fn link_failure(host: usize, tuples: u64, msg: String) -> HostFailure {
    HostFailure {
        host,
        cause: FailureCause::Link(msg),
        tuples_processed: tuples,
    }
}

/// Connects, handshakes and deploys one leaf unit. Every failure mode
/// — refused/reset connection, handshake rejection (version mismatch),
/// deployment rejection — comes back as a typed Link failure.
fn deploy_host(
    addr: &HostAddr,
    unit: usize,
    slice_host: usize,
    payload: Bytes,
    timeout_ms: u64,
) -> Result<HostSession, HostFailure> {
    let fail = |msg: String| link_failure(slice_host, 0, msg);
    let stream = crate::link::connect_with_backoff(addr, timeout_ms).map_err(&fail)?;
    let handshake_ms = if timeout_ms == 0 {
        HANDSHAKE_FALLBACK_MS
    } else {
        timeout_ms
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(handshake_ms)))
        .map_err(&fail)?;
    stream
        .set_write_timeout(Some(Duration::from_millis(handshake_ms)))
        .map_err(&fail)?;
    let mut write_half = stream.try_clone().map_err(&fail)?;
    let mut scratch = BytesMut::new();
    let expect = |half: &mut DuplexStream, what: &str| -> Result<ControlFrame, HostFailure> {
        match read_control(half) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(fail(format!("{addr}: connection closed awaiting {what}"))),
            Err(e) => Err(fail(format!("{addr}: {e} (awaiting {what})"))),
        }
    };
    write_control(
        &mut write_half,
        &ControlFrame::Hello {
            version: PROTOCOL_VERSION,
            host: slice_host as u32,
        },
        &mut scratch,
    )
    .map_err(&fail)?;
    let mut read_half = stream.try_clone().map_err(&fail)?;
    match expect(&mut read_half, "Welcome")? {
        ControlFrame::Welcome { version } if version == PROTOCOL_VERSION => {}
        ControlFrame::Welcome { version } => {
            return Err(fail(format!(
                "{addr}: protocol version mismatch (ours {PROTOCOL_VERSION}, theirs {version})"
            )))
        }
        ControlFrame::Error { kind, message } => {
            return Err(fail(format!(
                "{addr}: host rejected handshake ({kind}): {message}"
            )))
        }
        other => return Err(fail(format!("{addr}: protocol violation: {other:?}"))),
    }
    write_control(
        &mut write_half,
        &ControlFrame::Deploy(payload),
        &mut scratch,
    )
    .map_err(&fail)?;
    match expect(&mut read_half, "DeployAck")? {
        ControlFrame::DeployAck => {}
        ControlFrame::Error { kind, message } => {
            return Err(fail(format!(
                "{addr}: host rejected deployment ({kind}): {message}"
            )))
        }
        other => return Err(fail(format!("{addr}: protocol violation: {other:?}"))),
    }
    // Reads block until the host produces; the central unit's receive
    // timeout — not a per-read socket bound — decides when a quiet
    // boundary means a hung peer.
    stream.set_read_timeout(None).map_err(&fail)?;
    if timeout_ms > 0 {
        stream
            .set_write_timeout(Some(Duration::from_millis(timeout_ms)))
            .map_err(&fail)?;
    } else {
        stream.set_write_timeout(None).map_err(&fail)?;
    }
    Ok(HostSession {
        unit,
        host: slice_host,
        stream,
    })
}

/// Number of leaf host processes (and thus addresses) a plan needs
/// under the remote decomposition: one per non-aggregator host with
/// work, independent of the in-process parallelism knob.
pub fn remote_host_count(plan: &DistributedPlan, cfg: &SimConfig) -> usize {
    compute_units(
        plan,
        plan.partitioning.aggregator_host,
        &cfg.transport.host_serial(),
    )
    .len()
        - 1
}

/// Executes a distributed plan with each leaf host running as its own
/// OS process behind `hosts[i]` (one address per leaf unit, in unit
/// order — ascending host id under the host-serial decomposition).
/// Semantically identical to
/// [`crate::run_distributed_threaded`] with
/// [`TransportConfig::host_serial`](crate::TransportConfig::host_serial):
/// same splitter, same central engine, same strict / partial-results
/// semantics, bit-identical outputs — and, with rebalancing on, the
/// same drain-and-handoff, carried by `Migrate`/`MigrateAck` exchanges.
pub fn run_distributed_remote(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
    hosts: &[HostAddr],
) -> ExecResult<SimResult> {
    // One process per host: the decomposition is host-serial by
    // construction, whatever the in-process parallelism knob says.
    let cfg = &SimConfig {
        transport: cfg.transport.host_serial(),
        ..*cfg
    };
    let transport = cfg.transport;
    let agg = plan.partitioning.aggregator_host;
    let stream = single_stream(plan)?;
    let dep = Deployment::new(plan, &[(&stream, trace)], Some(&transport))?;
    dep.check_leaf_hosts(hosts.len())?;

    // Connect + handshake + deploy every leaf host up front, so a
    // refused or mismatched host fails fast (strict) or is recorded and
    // excluded (partial) before any data moves.
    let mut scratch = BytesMut::new();
    let mut sessions: Vec<HostSession> = Vec::new();
    let mut failures: Vec<HostFailure> = Vec::new();
    for (i, addr) in hosts.iter().enumerate() {
        let u = i + 1;
        let slice = &dep.slices[u];
        let payload = encode_remote_unit(&remote_unit_of(plan, slice, cfg)?, &mut scratch)?;
        match deploy_host(addr, u, slice.host, payload, transport.send_timeout_ms) {
            Ok(session) => sessions.push(session),
            Err(failure) if transport.partial_results => failures.push(failure),
            Err(failure) => return Err(failure.into()),
        }
    }

    let (tx, rx) = ChannelTransport.pair(transport.channel_capacity.max(1));
    let depth = SharedGauge::new();
    // Per-session shared state: outcome slot, coordinator-side fed
    // counter (failure attribution), the writer's and the reader's
    // failure, and the shutdown handle.
    let outcomes: Vec<Mutex<Option<UnitOutcome>>> =
        sessions.iter().map(|_| Mutex::new(None)).collect();
    let fed: Vec<AtomicU64> = sessions.iter().map(|_| AtomicU64::new(0)).collect();
    let session_failures: Vec<SessionFailure> =
        sessions.iter().map(|_| SessionFailure::default()).collect();
    let shutdown_handles: Vec<DuplexStream> = sessions
        .iter()
        .map(|s| s.stream.try_clone())
        .collect::<Result<_, _>>()
        .map_err(|e| link_failure(agg, 0, e))?;

    let (reb, central) = std::thread::scope(|scope| {
        let mut links = RemoteLinks {
            central: None,
            hosts: (0..dep.slices.len()).map(|_| None).collect(),
            dep: &dep,
            buckets_per_partition: cfg.transport.rebalance.buckets_per_partition,
            ack_timeout: Duration::from_millis(if transport.send_timeout_ms > 0 {
                transport.send_timeout_ms
            } else {
                HANDSHAKE_FALLBACK_MS
            }),
        };
        for (i, session) in sessions.iter().enumerate() {
            let failed = &session_failures[i];
            let clones = session
                .stream
                .try_clone()
                .and_then(|w| session.stream.try_clone().map(|r| (w, r)));
            let (write_stream, read_stream) = match clones {
                Ok(pair) => pair,
                Err(e) => {
                    *failed.writer.lock().unwrap() = Some((e, 0));
                    continue;
                }
            };
            let (cmd_tx, cmd_rx) = chan::unbounded::<HostCmd>();
            let (ack_tx, ack_rx) = chan::unbounded::<Bytes>();
            links.hosts[session.unit] = Some((cmd_tx, ack_rx));
            let fed_i = &fed[i];

            // Writer: drain the command queue into the socket — one
            // `Data` frame per splitter batch — then `Eos` once the
            // queue closes (end of stream or an abort path).
            scope.spawn(move || {
                let mut writer = BufWriter::new(write_stream);
                let mut enc_scratch = BytesMut::new();
                let mut ctl_scratch = BytesMut::new();
                let mut sent: u64 = 0;
                let outcome: Result<(), String> = (|| {
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            HostCmd::Feed(batches) => {
                                for (scan, batch) in batches {
                                    let frame = if transport.columnar {
                                        encode_column_batch(&batch, &mut enc_scratch)
                                    } else {
                                        encode_batch(&batch.to_rows(), &mut enc_scratch)
                                    }
                                    .map_err(|e| e.to_string())?;
                                    let data = ControlFrame::Data {
                                        producer: scan as u32,
                                        frame,
                                    };
                                    write_control(&mut writer, &data, &mut ctl_scratch)?;
                                    sent += batch.rows() as u64;
                                    fed_i.store(sent, Ordering::Relaxed);
                                }
                            }
                            HostCmd::Migrate(payload) => {
                                let cmd = ControlFrame::Migrate(payload);
                                write_control(&mut writer, &cmd, &mut ctl_scratch)?;
                                writer.flush().map_err(|e| e.to_string())?;
                            }
                        }
                    }
                    write_control(&mut writer, &ControlFrame::Eos, &mut ctl_scratch)?;
                    writer.flush().map_err(|e| e.to_string())
                })();
                if let Err(msg) = outcome {
                    *failed.writer.lock().unwrap() = Some((msg, sent));
                }
            });

            // Reader pump: boundary Data frames into the central
            // channel, MigrateAck payloads to the driver, the terminal
            // Result into the outcome slot; everything else is a typed
            // Link failure.
            let mut sink = tx.clone();
            let depth = &depth;
            let outcome_slot = &outcomes[i];
            scope.spawn(move || {
                let mut stream = read_stream;
                let failure = loop {
                    match read_control(&mut stream) {
                        Ok(Some(ControlFrame::Data { producer, frame })) => {
                            depth.inc();
                            // Central gone (strict-mode abort): stop
                            // pumping; sockets are shut down by the
                            // driver.
                            if let Ok(SendOutcome::Closed) | Err(_) =
                                sink.send((producer as NodeId, frame))
                            {
                                break None;
                            }
                        }
                        // Driver gone (abort path): keep pumping
                        // boundary frames regardless.
                        Ok(Some(ControlFrame::MigrateAck(payload))) => {
                            let _ = ack_tx.send(payload);
                        }
                        Ok(Some(ControlFrame::Result(payload))) => {
                            match decode_unit_outcome(payload) {
                                Ok(outcome) => {
                                    *outcome_slot.lock().unwrap() = Some(outcome);
                                    break None;
                                }
                                Err(e) => break Some(format!("result payload corrupt: {e}")),
                            }
                        }
                        Ok(Some(ControlFrame::Error { kind, message })) => {
                            break Some(format!("host reported failure ({kind}): {message}"))
                        }
                        Ok(Some(ControlFrame::Eos)) => continue,
                        Ok(Some(other)) => break Some(format!("protocol violation: {other:?}")),
                        Ok(None) => break Some("connection closed before result".into()),
                        Err(e) => break Some(e.to_string()),
                    }
                };
                if let Some(msg) = failure {
                    *failed.reader.lock().unwrap() = Some((msg, fed_i.load(Ordering::Relaxed)));
                }
            });
        }
        drop(tx);
        let (feed_tx, feed_rx) = chan::bounded(1);
        links.central = Some(feed_tx);
        // Dropping the links at end of stream makes each writer append
        // Eos behind its queued feed.
        let (reb, central) = split_beside_central(scope, dep.splitter(cfg), links, || {
            run_central_unit(&dep.slices[0], feed_rx, cfg, rx, &depth, &plan.host)
        });
        // Unblock any writer or pump still parked on a socket — a
        // strict-mode abort must not leave threads behind (the scope
        // would otherwise never join).
        for s in &shutdown_handles {
            s.shutdown();
        }
        (reb, central)
    });
    let central = central?;
    let reb = reb?;
    for (session, failed) in sessions.iter().zip(session_failures) {
        if let Some((msg, tuples)) = failed.cause() {
            failures.push(link_failure(session.host, tuples, msg));
        }
    }
    failures.extend(central.failures);

    // Stitch: central results in-process, leaf results from the
    // decoded outcomes (a session without one already recorded its
    // failure through the pump).
    let mut runs = vec![(0, central.run)];
    for (session, slot) in sessions.iter().zip(outcomes) {
        if let Some(o) = slot.into_inner().unwrap() {
            let outputs = o.outputs.into_iter().map(|(i, rows)| (i as usize, rows));
            let run = UnitRun {
                counters: o.counters,
                node_metrics: o.node_metrics,
                outputs: outputs.collect(),
                edges: o.edges,
                stalls: o.stalls,
                dropped: o.dropped,
            };
            runs.push((session.unit, run));
        }
    }
    let link = LinkMeasure {
        queue_peak: depth.peak(),
        corrupt_dropped: central.corrupt_dropped,
    };
    dep.finish(cfg, runs, failures, Some(link), reb)
}

/// How one host session failed: its writer's and its reader's error,
/// each with the tuples fed so far.
#[derive(Default)]
struct SessionFailure {
    writer: Mutex<Option<(String, u64)>>,
    reader: Mutex<Option<(String, u64)>>,
}

impl SessionFailure {
    /// The session's one failure. When both threads failed the reader's
    /// cause wins: it saw what the peer actually did (a close inside a
    /// frame, a reported error), while the writer's error is usually
    /// its echo (a broken pipe), and which of the two is noticed first
    /// is a race.
    fn cause(self) -> Option<(String, u64)> {
        let reader = self.reader.into_inner().unwrap();
        reader.or(self.writer.into_inner().unwrap())
    }
}

/// Coordinator→writer commands for one host session. The queue and the
/// socket are both FIFO, so a `Migrate` reaches the host only after
/// every feed batch queued before it — the socket counterpart of the
/// in-process drain ordering. Closing the queue is end-of-stream.
enum HostCmd {
    /// One epoch's staged batches, by global scan node.
    Feed(Vec<Feed>),
    /// An encoded [`MigrateCmd`] payload; the writer flushes its buffer
    /// behind it so the host sees the command promptly.
    Migrate(Bytes),
}

/// The socket coordinator's [`Links`]: the central unit's one-shot feed
/// channel, and per leaf unit its writer queue and acknowledgement
/// channel (`None` once the session is gone or never deployed).
struct RemoteLinks<'d, 'a> {
    central: Option<chan::Sender<Vec<Feed>>>,
    hosts: Vec<Option<(chan::Sender<HostCmd>, chan::Receiver<Bytes>)>>,
    dep: &'d Deployment<'a>,
    buckets_per_partition: usize,
    ack_timeout: Duration,
}

impl RemoteLinks<'_, '_> {
    fn command(&mut self, unit: usize, cmd: HostCmd) -> bool {
        let sent = matches!(&self.hosts[unit], Some((tx, _)) if tx.send(cmd).is_ok());
        if !sent {
            self.hosts[unit] = None;
        }
        sent
    }
}

impl Links for RemoteLinks<'_, '_> {
    fn handoff(&mut self, unit: usize, batches: Vec<Feed>) {
        if unit != 0 {
            self.command(unit, HostCmd::Feed(batches));
        } else if let Some(tx) = self.central.take() {
            let _ = tx.send(batches);
        }
    }

    fn send(&mut self, unit: usize, msg: UnitMsg) -> bool {
        let slice = &self.dep.slices[unit];
        let local = |g: NodeId| slice.local[&g] as u32;
        let cmd = match msg {
            // Hosts rebuild the key partitioner from the set and table.
            UnitMsg::Extract { boundary, jobs } => MigrateCmd::Extract {
                boundary,
                partitions: self.dep.plan.partitioning.partitions as u32,
                buckets_per_partition: self.buckets_per_partition as u32,
                assignment: jobs
                    .first()
                    .map_or_else(Vec::new, |j| j.keyp.assignment().to_vec()),
                set: match &self.dep.plan.partitioning.strategy {
                    SplitStrategy::Hash(set) => set.clone(),
                    SplitStrategy::RoundRobin => unreachable!("migrations run on hash splits"),
                },
                jobs: jobs.into_iter().map(|j| (local(j.node), j.owned)).collect(),
            },
            UnitMsg::Absorb(batches) => MigrateCmd::Absorb {
                batches: batches
                    .into_iter()
                    .map(|(n, rows)| (local(n), rows))
                    .collect(),
            },
        };
        match encode_migrate_cmd(&cmd, &mut BytesMut::new()) {
            Ok(payload) => self.command(unit, HostCmd::Migrate(payload)),
            Err(_) => false,
        }
    }

    fn reply(&mut self, unit: usize) -> Option<StateRows> {
        let slice = &self.dep.slices[unit];
        let global = |l: u32| {
            slice
                .local
                .iter()
                .find(|&(_, &v)| v == l as NodeId)
                .map(|(&g, _)| g)
        };
        let reply = (self.hosts[unit].as_ref())
            .and_then(|(_, acks)| acks.recv_timeout(self.ack_timeout).ok())
            .and_then(|payload| decode_migrate_reply(payload).ok())
            .and_then(|batches| {
                let global_rows = batches
                    .into_iter()
                    .map(|(l, rows)| Some((global(l)?, rows)));
                global_rows.collect::<Option<Vec<_>>>()
            });
        if reply.is_none() {
            self.hosts[unit] = None;
        }
        reply
    }
}

// ---------------------------------------------------------------------
// Host server
// ---------------------------------------------------------------------

/// Knobs for [`serve_host`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HostServerConfig {
    /// Serve exactly one coordinator session, then return (tests and
    /// one-shot child processes); `false` accepts sessions forever.
    pub once: bool,
}

/// Rebuilds the deployed unit's DAG by replaying its build script over
/// a fresh catalog — the exact construction [`slice_unit`] performed on
/// the coordinator, so node ids and inferred schemas reproduce.
fn rebuild_dag(unit: &RemoteUnit) -> ExecResult<QueryDag> {
    let mut catalog = Catalog::new();
    for s in &unit.schemas {
        catalog
            .register(s.clone())
            .map_err(|e| ExecError::BadPlan(format!("deployed catalog: {e}")))?;
    }
    let mut dag = QueryDag::new(catalog);
    for node in &unit.nodes {
        match node {
            LogicalNode::Source { stream, partition } => {
                let p = partition.ok_or_else(|| {
                    ExecError::BadPlan("deployed scan is missing its partition".into())
                })?;
                dag.add_partition_source(stream, p)
                    .map_err(|e| ExecError::BadPlan(format!("deployed scan: {e}")))?;
            }
            other => {
                dag.add_node(other.clone())
                    .map_err(|e| ExecError::BadPlan(format!("deployed node: {e}")))?;
            }
        }
    }
    Ok(dag)
}

/// Executes one deployed unit against a stream of `Data` frames,
/// shipping boundary frames back through `sink` as they materialize,
/// answering each `Migrate` with a `MigrateAck`, and returning the
/// final outcome after `Eos`.
fn run_deployed_unit(
    unit: &RemoteUnit,
    dag: &QueryDag,
    stream: &mut DuplexStream,
    sink: &mut StreamSink<DuplexStream>,
) -> ExecResult<UnitOutcome> {
    let depth = SharedGauge::new();
    let tuples = AtomicU64::new(0);
    let shared = TxShared {
        sink: ForwardSink(sink),
        depth: &depth,
        stalls: 0,
        dropped: 0,
        tuples: &tuples,
        fault: unit.fault,
        send_timeout_ms: unit.send_timeout_ms,
        host: unit.host as usize,
    };
    let pairs = |v: &[(u32, u32)]| -> Vec<(usize, NodeId)> {
        v.iter().map(|&(a, l)| (a as usize, l as NodeId)).collect()
    };
    let mut leaf = Leaf::new(
        dag,
        &pairs(&unit.boundary),
        pairs(&unit.outputs),
        BatchConfig::new(unit.max_batch as usize),
        unit.frame_batch.max(1) as usize,
        unit.columnar,
        shared,
    )?;
    let scan_local: HashMap<u32, NodeId> =
        unit.scans.iter().map(|&(g, l)| (g, l as NodeId)).collect();
    let mut scratch = BytesMut::new();
    loop {
        match read_control(stream).map_err(|e| ExecError::BadPlan(format!("feed link: {e}")))? {
            Some(ControlFrame::Data { producer, frame }) => {
                let local = *scan_local.get(&producer).ok_or_else(|| {
                    ExecError::BadPlan(format!("feed for unknown scan node {producer}"))
                })?;
                leaf.push_frame(local, frame)?;
            }
            Some(ControlFrame::Migrate(payload)) => {
                let cmd = decode_migrate_cmd(payload)
                    .map_err(|e| ExecError::BadPlan(format!("migrate command corrupt: {e}")))?;
                // Socket FIFO means every feed frame queued before this
                // command is already in the engine: flushing to the
                // boundary here is the same drain the in-process worker
                // performs.
                let msg = match cmd {
                    MigrateCmd::Extract {
                        boundary,
                        partitions,
                        buckets_per_partition,
                        assignment,
                        set,
                        jobs,
                    } => {
                        let job = |(node, owned): (u32, Vec<u32>)| {
                            let node = node as NodeId;
                            if node >= dag.len() {
                                return Err(ExecError::BadPlan(format!(
                                    "migrate job for unknown node {node}"
                                )));
                            }
                            let mut keyp = HashPartitioner::with_buckets(
                                &set,
                                dag.schema(node),
                                partitions as usize,
                                buckets_per_partition as usize,
                            )
                            .map_err(|e| ExecError::BadPlan(format!("migrate partitioner: {e}")))?;
                            keyp.set_assignment(assignment.clone());
                            Ok(ExtractJob { node, keyp, owned })
                        };
                        let jobs = jobs.into_iter().map(job).collect::<ExecResult<_>>()?;
                        UnitMsg::Extract { boundary, jobs }
                    }
                    MigrateCmd::Absorb { batches } => UnitMsg::Absorb(
                        batches
                            .into_iter()
                            .map(|(n, rows)| (n as NodeId, rows))
                            .collect(),
                    ),
                };
                let rows: Vec<(u32, Vec<Tuple>)> = (leaf.migrate(msg, |n| n)?.into_iter())
                    .map(|(n, rows)| (n as u32, rows))
                    .collect();
                let reply = encode_migrate_reply(&rows, &mut scratch)
                    .map_err(|e| ExecError::BadPlan(format!("encode migrate reply: {e}")))?;
                leaf.sink()
                    .0
                    .write_control(&ControlFrame::MigrateAck(reply))
                    .map_err(|e| ExecError::BadPlan(format!("migrate ack link: {e}")))?;
            }
            Some(ControlFrame::Eos) => break,
            Some(other) => {
                return Err(ExecError::BadPlan(format!(
                    "protocol violation mid-feed: {other:?}"
                )))
            }
            None => {
                return Err(ExecError::BadPlan(
                    "coordinator closed the feed before Eos".into(),
                ))
            }
        }
    }
    let run = leaf.finish()?;
    Ok(UnitOutcome {
        counters: run.counters,
        node_metrics: run.node_metrics,
        outputs: run
            .outputs
            .into_iter()
            .map(|(i, rows)| (i as u32, rows))
            .collect(),
        edges: run.edges,
        stalls: run.stalls,
        dropped: run.dropped,
        tuples_fed: tuples.load(Ordering::Relaxed),
    })
}

/// A [`FrameSink`] borrowing the session's [`StreamSink`], so the unit
/// can interleave boundary `Data` frames with the terminal `Result` on
/// one ordered stream.
struct ForwardSink<'a>(&'a mut StreamSink<DuplexStream>);

impl FrameSink for ForwardSink<'_> {
    fn try_send(&mut self, frame: crate::link::Frame) -> Result<crate::link::SendOutcome, String> {
        self.0.try_send(frame)
    }

    fn send(&mut self, frame: crate::link::Frame) -> Result<crate::link::SendOutcome, String> {
        self.0.send(frame)
    }
}

/// Handles one coordinator session on an accepted stream: versioned
/// handshake, deployment, execution, result. Protocol and execution
/// failures are reported to the coordinator as typed `Error` frames;
/// only transport-level failures (the session socket itself dying)
/// surface as `Err`.
fn serve_session(mut stream: DuplexStream) -> Result<(), String> {
    let mut scratch = BytesMut::new();
    let hello = match read_control(&mut stream) {
        Ok(Some(ControlFrame::Hello { version, host })) => (version, host),
        Ok(Some(other)) => {
            return Err(format!("protocol violation: expected Hello, got {other:?}"))
        }
        Ok(None) => return Err("connection closed before Hello".into()),
        Err(e) => return Err(e.to_string()),
    };
    let (version, _host) = hello;
    if version != PROTOCOL_VERSION {
        let reject = ControlFrame::Error {
            kind: ERROR_VERSION,
            message: format!(
                "protocol version mismatch: host speaks {PROTOCOL_VERSION}, coordinator sent {version}"
            ),
        };
        write_control(&mut stream, &reject, &mut scratch)?;
        return Ok(());
    }
    write_control(
        &mut stream,
        &ControlFrame::Welcome {
            version: PROTOCOL_VERSION,
        },
        &mut scratch,
    )?;

    let payload = match read_control(&mut stream) {
        Ok(Some(ControlFrame::Deploy(payload))) => payload,
        Ok(Some(other)) => {
            return Err(format!(
                "protocol violation: expected Deploy, got {other:?}"
            ))
        }
        Ok(None) => return Err("connection closed before Deploy".into()),
        Err(e) => return Err(e.to_string()),
    };
    let unit = match decode_remote_unit(payload) {
        Ok(unit) => unit,
        Err(e) => {
            let reject = ControlFrame::Error {
                kind: ERROR_DEPLOY,
                message: format!("deployment payload corrupt: {e}"),
            };
            write_control(&mut stream, &reject, &mut scratch)?;
            return Ok(());
        }
    };
    let dag = match rebuild_dag(&unit) {
        Ok(dag) => dag,
        Err(e) => {
            let reject = ControlFrame::Error {
                kind: ERROR_DEPLOY,
                message: format!("deployment rejected: {e}"),
            };
            write_control(&mut stream, &reject, &mut scratch)?;
            return Ok(());
        }
    };
    write_control(&mut stream, &ControlFrame::DeployAck, &mut scratch)?;

    let write_half = stream.try_clone()?;
    let mut sink = StreamSink::new(write_half);
    // A panic (organic or injected by the shipped fault plan) must not
    // tear down the acceptor silently: catch it and report a typed
    // execution error before ending the session.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        run_deployed_unit(&unit, &dag, &mut stream, &mut sink)
    }));
    match ran {
        Ok(Ok(outcome)) => {
            let payload = encode_unit_outcome(&outcome, &mut scratch)
                .map_err(|e| format!("encode outcome: {e}"))?;
            sink.write_control(&ControlFrame::Result(payload))?;
            Ok(())
        }
        Ok(Err(e)) => {
            let report = ControlFrame::Error {
                kind: ERROR_EXEC,
                message: e.to_string(),
            };
            sink.write_control(&report)?;
            Ok(())
        }
        Err(panic) => {
            let report = ControlFrame::Error {
                kind: ERROR_EXEC,
                message: format!("host worker panicked: {}", panic_message(panic)),
            };
            sink.write_control(&report)?;
            Ok(())
        }
    }
}

/// Runs a cluster host process: accepts coordinator sessions on
/// `listener` and executes each deployed unit to completion. With
/// [`HostServerConfig::once`] the first session (successful or not)
/// ends the loop — the mode `qapctl run --transport` children and the
/// socket test suites use.
pub fn serve_host(listener: &HostListener, cfg: &HostServerConfig) -> Result<(), String> {
    loop {
        let stream = listener.accept()?;
        let outcome = serve_session(stream);
        if cfg.once {
            return outcome;
        }
        if let Err(msg) = outcome {
            eprintln!("qapctl host: session failed: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::decode_control;

    use crate::link::connect_with_backoff;
    use crate::run_distributed_threaded;
    use crate::transport::TransportConfig;

    fn flows_dag() -> qap_plan::QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        b.build()
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort_by(|a, b| {
            for (x, y) in a.values().iter().zip(b.values()) {
                let ord = x.total_cmp(y);
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// Spawns in-process `serve_host` acceptors (one per leaf unit) on
    /// ephemeral TCP ports and returns their addresses.
    fn spawn_hosts(n: usize) -> Vec<HostAddr> {
        let mut addrs = Vec::new();
        for _ in 0..n {
            let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).expect("bind");
            addrs.push(listener.local_addr().expect("local addr"));
            std::thread::spawn(move || {
                let _ = serve_host(&listener, &HostServerConfig { once: true });
            });
        }
        addrs
    }

    #[test]
    fn tcp_run_matches_threaded_runner() {
        let dag = flows_dag();
        let trace = generate(&TraceConfig::tiny(33));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let cfg = SimConfig {
            transport: TransportConfig::default().host_serial(),
            ..SimConfig::default()
        };
        let threaded = run_distributed_threaded(&plan, &trace, &cfg).unwrap();

        let units = compute_units(&plan, plan.partitioning.aggregator_host, &cfg.transport);
        let addrs = spawn_hosts(units.len() - 1);
        let remote = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();

        assert!(remote.failures.is_empty(), "{:?}", remote.failures);
        assert_eq!(threaded.outputs.len(), remote.outputs.len());
        for (t, r) in threaded.outputs.iter().zip(remote.outputs.iter()) {
            assert_eq!(t.0, r.0);
            assert_eq!(sorted(t.1.clone()), sorted(r.1.clone()), "output {}", t.0);
        }
        assert_eq!(threaded.counters, remote.counters);
        assert_eq!(
            threaded.metrics.transport.tuples(),
            remote.metrics.transport.tuples()
        );
    }

    #[test]
    fn adaptive_tcp_is_bit_identical_and_migrates() {
        use crate::rebalance::RebalanceConfig;
        use qap_trace::{generate_skew_ramp, SkewRampConfig};

        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts, SUM(len) as bytes FROM TCP \
             GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let dag = b.build();
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
        let cfg = SimConfig {
            transport: TransportConfig::default().host_serial(),
            ..SimConfig::default()
        };

        let units = compute_units(&plan, plan.partitioning.aggregator_host, &cfg.transport);
        let addrs = spawn_hosts(units.len() - 1);
        let stat = run_distributed_remote(&plan, &trace, &cfg, &addrs).unwrap();

        // 45s samples against 60s windows: the drain boundary splits
        // live windows, so group state genuinely ships between hosts.
        let mut acfg = cfg;
        acfg.transport.rebalance = RebalanceConfig::adaptive()
            .with_threshold(1.2)
            .with_consecutive(1)
            .with_sample_secs(45);
        let addrs = spawn_hosts(units.len() - 1);
        let adap = run_distributed_remote(&plan, &trace, &acfg, &addrs).unwrap();

        assert!(
            adap.metrics.rebalance_fallback.is_none(),
            "{:?}",
            adap.metrics.rebalance_fallback
        );
        assert!(adap.metrics.repartitions >= 1, "no repartition fired");
        assert!(adap.metrics.migrated_keys > 0, "no state shipped");
        assert!(adap.failures.is_empty(), "{:?}", adap.failures);
        assert_eq!(stat.outputs.len(), adap.outputs.len());
        for (s, a) in stat.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(s.0, a.0);
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "{}", s.0);
        }
    }

    #[test]
    fn version_mismatch_is_rejected_with_typed_error() {
        let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_host(&listener, &HostServerConfig { once: true }));

        let mut stream = connect_with_backoff(&addr, 2_000).unwrap();
        let mut scratch = BytesMut::new();
        write_control(
            &mut stream,
            &ControlFrame::Hello {
                version: PROTOCOL_VERSION + 1,
                host: 0,
            },
            &mut scratch,
        )
        .unwrap();
        match read_control(&mut stream).unwrap() {
            Some(ControlFrame::Error { kind, message }) => {
                assert_eq!(kind, ERROR_VERSION);
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
        server.join().unwrap().unwrap();
        // And the codec agrees end to end: a re-encoded rejection still
        // decodes to the same kind.
        let bytes = qap_types::encode_control(
            &ControlFrame::Error {
                kind: ERROR_VERSION,
                message: "version 1 != 2".into(),
            },
            &mut scratch,
        )
        .unwrap();
        assert!(matches!(
            decode_control(bytes).unwrap(),
            ControlFrame::Error {
                kind: ERROR_VERSION,
                ..
            }
        ));
    }

    #[test]
    fn corrupt_deploy_payload_is_rejected_not_panicked() {
        let listener = HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_host(&listener, &HostServerConfig { once: true }));

        let mut stream = connect_with_backoff(&addr, 2_000).unwrap();
        let mut scratch = BytesMut::new();
        write_control(
            &mut stream,
            &ControlFrame::Hello {
                version: PROTOCOL_VERSION,
                host: 1,
            },
            &mut scratch,
        )
        .unwrap();
        assert!(matches!(
            read_control(&mut stream).unwrap(),
            Some(ControlFrame::Welcome { .. })
        ));
        write_control(
            &mut stream,
            &ControlFrame::Deploy(Bytes::from(vec![0xde, 0xad, 0xbe, 0xef])),
            &mut scratch,
        )
        .unwrap();
        match read_control(&mut stream).unwrap() {
            Some(ControlFrame::Error { kind, .. }) => assert_eq!(kind, ERROR_DEPLOY),
            other => panic!("expected deploy rejection, got {other:?}"),
        }
        server.join().unwrap().unwrap();
    }
}
