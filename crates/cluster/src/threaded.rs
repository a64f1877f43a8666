//! Multi-threaded cluster execution over framed, bounded boundary
//! transport.
//!
//! Where [`crate::run_distributed`] executes the whole physical plan in
//! one deterministic engine, this runner actually *distributes* it over
//! the splitter's execution units ([`crate::splitter`]):
//!
//! - the **central unit** — the aggregation tier (`plan.central`
//!   nodes), run by its own thread;
//! - one **leaf unit** per independent partition pipeline — a connected
//!   component of non-central nodes on one host — each run by its own
//!   worker thread. A host owning N partition scans therefore runs N
//!   workers, so a 4-host deployment scales with cores instead of
//!   serializing each host's partitions on one thread
//!   ([`TransportConfig::partition_parallel`](crate::TransportConfig::partition_parallel); turning it off restores
//!   the one-thread-per-host baseline, whose central unit also runs
//!   the aggregator host's scans).
//!
//! The calling thread is the splitter. Each worker receives an epoch's
//! staged columnar batches in one channel message when the epoch
//! closes — a static run is one epoch, routed before any unit starts —
//! and migration messages on the same FIFO channel, so a flush+extract
//! reaches a worker only after every batch routed before it.
//!
//! Boundary data crosses units as **length-prefixed wire frames** (up
//! to [`TransportConfig::frame_batch`](crate::TransportConfig::frame_batch) tuples per frame, staged through
//! reusable scratch) over a **bounded** channel of
//! [`TransportConfig::channel_capacity`](crate::TransportConfig::channel_capacity) frames: a producer that
//! outruns the central consumer blocks — backpressure — instead of
//! buffering unboundedly. Frames carry either representation: columnar
//! (SoA) payloads ([`qap_types::encode_column_batch`], the default —
//! the receiving engine keeps them columnar through its vectorized hot
//! path) or row-major payloads ([`qap_types::encode_batch`], the
//! [`TransportConfig::with_columnar`](crate::TransportConfig::with_columnar)`(false)` baseline, whose payload
//! length is exactly `Σ encoded_len(tuple)` — the Section 4.2.1 cost
//! model's estimate). The encoded frames double as the *measured* byte
//! source ([`TransportMetrics`](crate::TransportMetrics)) either way.
//!
//! Results are identical to the single-threaded simulator at every
//! capacity/frame-size setting (the engines' merge operators align
//! independently-progressing inputs), which the transport equivalence
//! suite checks.
//!
//! # Fault tolerance
//!
//! Host faults are first-class operating conditions, not panics. A
//! worker panic is caught ([`std::panic::catch_unwind`]) and surfaces
//! as a typed [`HostFailure`] with
//! [`FailureCause::Panic`]; a corrupt boundary frame surfaces as
//! [`FailureCause::Decode`] attributed to the producing host; a peer
//! that neither produces nor accepts a frame within
//! [`TransportConfig::send_timeout_ms`](crate::TransportConfig::send_timeout_ms) surfaces as
//! [`FailureCause::Timeout`] instead of deadlocking the run (producers
//! retry a full channel with bounded backoff; the central consumer
//! bounds its receive wait). In strict mode (the default) the first
//! failure aborts the run as `Err(ExecError::Host(..))`; with
//! [`TransportConfig::partial_results`](crate::TransportConfig::partial_results) surviving hosts finish their
//! epochs and the [`SimResult`] carries the per-host failure records
//! plus conservation-checked partial counters. A deterministic
//! [`FaultPlan`] injects each fault class on demand for the chaos
//! suite; the default plan injects nothing and leaves the clean path
//! bit-identical.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel as chan;
use qap_exec::{BatchConfig, Engine, ExecError, ExecResult, FailureCause, HostFailure};
use qap_obs::SharedGauge;
use qap_optimizer::DistributedPlan;
use qap_plan::{NodeId, QueryDag};
use qap_types::{
    encode_batch, encode_column_batch, Bytes, BytesMut, ColumnBatch, Tuple, FRAME_HEADER_LEN,
};

use crate::link::{ChannelTransport, FrameSink, FrameSource, RecvOutcome, SendOutcome, Transport};
use crate::sim::{SimConfig, SimResult};
use crate::splitter::{
    absorb, flush_extract, push_feed, single_stream, Deployment, Feed, LinkMeasure, Links,
    Rebalanced, Splitter, StateRows, UnitMsg, UnitPlan, UnitRun,
};
use crate::transport::{EdgeTransport, FaultPlan};

/// Executes a distributed plan with partition-parallel worker threads
/// and framed, bounded boundary transport. Semantically identical to
/// [`crate::run_distributed`]; metrics are computed from the merged
/// per-unit counters with the same accounting, plus the *measured*
/// transport from the frame path.
pub fn run_distributed_threaded(
    plan: &DistributedPlan,
    trace: &[Tuple],
    cfg: &SimConfig,
) -> ExecResult<SimResult> {
    let stream = single_stream(plan)?;
    let dep = Deployment::new(plan, &[(&stream, trace)], Some(&cfg.transport))?;
    let transport = cfg.transport;
    // The boundary data path: one bounded frame channel fanning into
    // the central unit.
    let (tx, rx) = ChannelTransport.pair(transport.channel_capacity.max(1));
    // Live depth of the boundary channel (in-flight frames).
    let depth = SharedGauge::new();
    // Per-worker progress counters, owned by the driver so a panicking
    // worker's last consistent tuple count survives into its failure
    // record.
    let worker_tuples: Vec<AtomicU64> = dep.slices.iter().map(|_| AtomicU64::new(0)).collect();
    let frame_batch = transport.frame_batch.max(1);

    let result = std::thread::scope(|scope| {
        let mut links = ThreadLinks {
            central: None,
            workers: vec![None],
            replies: vec![chan::unbounded().1],
        };
        let mut handles = Vec::new();
        for (u, slice) in dep.slices.iter().enumerate().skip(1) {
            let (cmd_tx, cmd_rx) = chan::unbounded();
            let (reply_tx, reply_rx) = chan::unbounded();
            links.workers.push(Some(cmd_tx));
            links.replies.push(reply_rx);
            let shared = TxShared {
                sink: tx.clone(),
                depth: &depth,
                stalls: 0,
                dropped: 0,
                tuples: &worker_tuples[u],
                fault: transport.fault,
                send_timeout_ms: transport.send_timeout_ms,
                host: slice.host,
            };
            let handle = scope.spawn(move || {
                // A worker panic (organic or injected) must not
                // propagate: catch it here and let the driver turn it
                // into a typed HostFailure. The closure's state is
                // moved in and abandoned on unwind, so AssertUnwindSafe
                // is sound.
                catch_unwind(AssertUnwindSafe(|| {
                    let local = |g: NodeId| slice.local[&g];
                    let boundary: Vec<_> = slice.boundary.iter().map(|&g| (g, local(g))).collect();
                    let outputs = slice.outputs.iter().map(|&(i, g)| (i, local(g))).collect();
                    let mut leaf = Leaf::new(
                        &slice.dag,
                        &boundary,
                        outputs,
                        cfg.batch,
                        frame_batch,
                        transport.columnar,
                        shared,
                    )?;
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            WorkerCmd::Feed(batches) => {
                                for (scan, batch) in batches {
                                    leaf.push(local(scan), batch)?;
                                }
                            }
                            WorkerCmd::Migrate(msg) => {
                                // An engine error drops the reply
                                // sender: the driver reads it as a
                                // death and the join records the cause.
                                let _ = reply_tx.send(leaf.migrate(msg, local)?);
                            }
                        }
                    }
                    leaf.finish()
                }))
            });
            handles.push((u, handle));
        }
        drop(tx);
        let (feed_tx, feed_rx) = chan::bounded(1);
        links.central = Some(feed_tx);
        let (reb, central) = split_beside_central(scope, dep.splitter(cfg), links, || {
            run_central_unit(&dep.slices[0], feed_rx, cfg, rx, &depth, &plan.host)
        });
        let mut runs = Vec::new();
        let mut failures = Vec::new();
        for (u, handle) in handles {
            let host = dep.slices[u].host;
            let fail = |cause| HostFailure {
                host,
                cause,
                tuples_processed: worker_tuples[u].load(Ordering::Relaxed),
            };
            match handle.join().expect("catch_unwind never panics") {
                Ok(Ok(run)) => runs.push((u, run)),
                Ok(Err(ExecError::Host(f))) => failures.push(f),
                Ok(Err(e)) => failures.push(fail(FailureCause::Exec(Box::new(e)))),
                Err(payload) => failures.push(fail(FailureCause::Panic(panic_message(payload)))),
            }
        }
        let central = central?;
        runs.insert(0, (0, central.run));
        failures.extend(central.failures);
        Ok::<_, ExecError>((reb?, runs, failures, central.corrupt_dropped))
    });
    let (reb, runs, failures, corrupt_dropped) = result?;
    let link = LinkMeasure {
        queue_peak: depth.peak(),
        corrupt_dropped,
    };
    dep.finish(cfg, runs, failures, Some(link), reb)
}

/// Runs one run's splitter into `links` beside the central unit: on
/// its own thread while the splitter cuts epochs (it must drain
/// boundary frames meanwhile), otherwise on this thread once every feed
/// is routed — which also keeps the run's large transient allocations
/// on one thread. Dropping `links` ends the stream.
pub(crate) fn split_beside_central<'s, L: Links>(
    scope: &'s std::thread::Scope<'s, '_>,
    splitter: Splitter,
    mut links: L,
    central: impl FnOnce() -> ExecResult<CentralOutcome> + Send + 's,
) -> (ExecResult<Rebalanced>, ExecResult<CentralOutcome>) {
    let mut central = Some(central);
    let spawned = (splitter.epochs()).then(|| scope.spawn(central.take().unwrap()));
    let reb = splitter.run(&mut links);
    drop(links);
    let outcome = match (spawned, central) {
        (Some(handle), _) => handle
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p)),
        (None, run) => run.expect("central unit runs once")(),
    };
    (reb, outcome)
}

/// Driver→worker messages. Per-channel FIFO is the protocol's ordering
/// guarantee: a migration message is applied after every feed queued
/// before it, which is the drain step of drain-and-handoff. Dropping
/// the channel is end-of-stream.
enum WorkerCmd {
    /// One epoch's staged batches, by global scan node.
    Feed(Vec<Feed>),
    Migrate(UnitMsg),
}

/// The threaded runner's [`Links`]: the central unit's one-shot feed
/// channel, and a command and a reply channel per worker (index 0 is
/// the central unit, which takes no commands).
struct ThreadLinks {
    central: Option<chan::Sender<Vec<Feed>>>,
    workers: Vec<Option<chan::Sender<WorkerCmd>>>,
    replies: Vec<chan::Receiver<StateRows>>,
}

impl ThreadLinks {
    /// Sends to a live worker; a dead one is forgotten (its typed
    /// failure is harvested at join).
    fn command(&mut self, unit: usize, cmd: WorkerCmd) -> bool {
        let sent = matches!(&self.workers[unit], Some(tx) if tx.send(cmd).is_ok());
        if !sent {
            self.workers[unit] = None;
        }
        sent
    }
}

impl Links for ThreadLinks {
    fn handoff(&mut self, unit: usize, batches: Vec<Feed>) {
        if unit != 0 {
            self.command(unit, WorkerCmd::Feed(batches));
        } else if let Some(tx) = self.central.take() {
            let _ = tx.send(batches);
        }
    }

    fn send(&mut self, unit: usize, msg: UnitMsg) -> bool {
        self.command(unit, WorkerCmd::Migrate(msg))
    }

    fn reply(&mut self, unit: usize) -> Option<StateRows> {
        let reply = self.replies[unit].recv().ok();
        if reply.is_none() {
            self.workers[unit] = None;
        }
        reply
    }
}

/// A leaf unit's engine with its boundary send path: the state a
/// threaded worker and a remote host process share. Feeding advances
/// the progress counter, applies the fault plan's panic knob and
/// forwards any boundary output as frames.
pub(crate) struct Leaf<'a, S: FrameSink> {
    engine: Engine,
    edges: Vec<EdgeStage>,
    /// `(plan output index, local node)`.
    outputs: Vec<(usize, NodeId)>,
    frame_batch: usize,
    columnar: bool,
    scratch: BytesMut,
    shared: TxShared<'a, S>,
    fed: u64,
    panic_at: Option<u64>,
}

impl<'a, S: FrameSink> Leaf<'a, S> {
    /// Builds the unit's engine. An injected hang stalls here, once,
    /// before the first frame — long enough for the consumer's receive
    /// timeout to notice, and finite so the runner always joins.
    /// `boundary` lists `(global, local)` producers whose output ships
    /// as frames; `outputs` the `(plan output index, local node)` pairs
    /// hosted here.
    pub(crate) fn new(
        dag: &QueryDag,
        boundary: &[(NodeId, NodeId)],
        outputs: Vec<(usize, NodeId)>,
        batch: BatchConfig,
        frame_batch: usize,
        columnar: bool,
        shared: TxShared<'a, S>,
    ) -> ExecResult<Self> {
        let fault = shared.fault;
        if fault.hang_host == Some(shared.host) && fault.hang_millis > 0 {
            std::thread::sleep(Duration::from_millis(fault.hang_millis));
        }
        let mut sinks: Vec<NodeId> = boundary.iter().map(|&(_, l)| l).collect();
        for &(_, l) in &outputs {
            if !sinks.contains(&l) {
                sinks.push(l);
            }
        }
        let mut engine = Engine::with_sinks(dag, &sinks)?;
        engine.set_batch_config(batch);
        let edges = (boundary.iter())
            .map(|&(g, l)| EdgeStage::new(dag, g, l, shared.host))
            .collect();
        Ok(Leaf {
            engine,
            edges,
            outputs,
            frame_batch,
            columnar,
            scratch: BytesMut::new(),
            panic_at: (fault.panic_host == Some(shared.host)).then_some(fault.panic_after_tuples),
            shared,
            fed: 0,
        })
    }

    /// Feeds one splitter batch to a (local) scan in the configured
    /// representation.
    pub(crate) fn push(&mut self, scan: NodeId, mut batch: ColumnBatch) -> ExecResult<()> {
        let n = batch.rows() as u64;
        push_feed(&mut self.engine, scan, &mut batch, self.columnar)?;
        self.advance(n)
    }

    /// Feeds one encoded splitter batch to a (local) scan.
    pub(crate) fn push_frame(&mut self, scan: NodeId, frame: Bytes) -> ExecResult<()> {
        let n = self.engine.push_frame(scan, frame)?;
        self.advance(n as u64)
    }

    fn advance(&mut self, n: u64) -> ExecResult<()> {
        self.fed += n;
        self.shared.tuples.store(self.fed, Ordering::Relaxed);
        if let Some(at) = self.panic_at {
            if self.fed >= at {
                panic!(
                    "injected worker fault after {} tuples (plan: panic at {at})",
                    self.fed
                );
            }
        }
        self.forward(false)
    }

    /// Applies one migration message; `local` maps its node ids to the
    /// engine's.
    pub(crate) fn migrate(
        &mut self,
        msg: UnitMsg,
        local: impl Fn(NodeId) -> NodeId,
    ) -> ExecResult<StateRows> {
        let rows = match msg {
            UnitMsg::Extract { boundary, jobs } => {
                flush_extract(&mut self.engine, boundary, &jobs, local)?
            }
            UnitMsg::Absorb(batches) => {
                absorb(&mut self.engine, batches, local)?;
                Vec::new()
            }
        };
        self.forward(false)?;
        Ok(rows)
    }

    /// The unit's frame sink, for out-of-band control replies.
    pub(crate) fn sink(&mut self) -> &mut S {
        &mut self.shared.sink
    }

    /// Ends the stream: finishes the engine and ships the tail frames.
    pub(crate) fn finish(mut self) -> ExecResult<UnitRun> {
        self.engine.finish()?;
        self.forward(true)?;
        let engine = &mut self.engine;
        Ok(UnitRun {
            counters: engine.counters().to_vec(),
            node_metrics: engine.metrics(),
            outputs: (self.outputs.iter())
                .map(|&(i, l)| (i, engine.output(l)))
                .collect(),
            edges: self.edges.into_iter().map(|e| e.stats).collect(),
            stalls: self.shared.stalls,
            dropped: self.shared.dropped,
        })
    }

    /// Drains each boundary sink into its staging buffer and ships
    /// every full `frame_batch`-tuple frame (plus, on `final_flush`,
    /// the partial tail frame). Frames per edge are deterministic: the
    /// producer's output sequence is fixed by the plan and trace, and
    /// chunking is positional.
    fn forward(&mut self, final_flush: bool) -> ExecResult<()> {
        let frame_batch = self.frame_batch;
        for edge in self.edges.iter_mut() {
            let mut drained = self.engine.drain_output(edge.local);
            if !drained.is_empty() {
                if edge.pending.is_empty() {
                    edge.pending = drained;
                } else {
                    edge.pending.append(&mut drained);
                }
            }
            let mut start = 0;
            while edge.pending.len() - start >= frame_batch {
                let range = start..start + frame_batch;
                ship(
                    edge,
                    range,
                    self.columnar,
                    &mut self.scratch,
                    &mut self.shared,
                )?;
                start += frame_batch;
            }
            if final_flush && start < edge.pending.len() {
                let end = edge.pending.len();
                ship(
                    edge,
                    start..end,
                    self.columnar,
                    &mut self.scratch,
                    &mut self.shared,
                )?;
                start = end;
            }
            if start > 0 {
                edge.pending.drain(..start);
            }
        }
        Ok(())
    }
}

/// A leaf unit's send path: the boundary frame sink plus telemetry
/// counters, the fault plan, and the retry bound. One per unit (a
/// channel sink is a cheap sender clone, a socket sink owns its
/// stream's write half; the gauge and progress counter are shared
/// references into driver-owned state).
pub(crate) struct TxShared<'a, S: FrameSink> {
    pub(crate) sink: S,
    /// Live boundary-buffer depth (in-flight frames).
    pub(crate) depth: &'a SharedGauge,
    /// First-refusal backpressure stalls.
    pub(crate) stalls: u64,
    /// Frames discarded by the fault plan's `drop_every` knob.
    pub(crate) dropped: u64,
    /// Tuples this worker has fed its engine — advanced batch by batch
    /// so a panic or fault mid-run reports the last consistent count in
    /// its [`HostFailure`].
    pub(crate) tuples: &'a AtomicU64,
    pub(crate) fault: FaultPlan,
    /// Bound on the full-buffer retry loop, in milliseconds (0 =
    /// unbounded blocking send, the pre-fault-tolerance behavior).
    pub(crate) send_timeout_ms: u64,
    /// Host this worker executes on (fault targeting + attribution).
    pub(crate) host: usize,
}

/// Applies the per-frame fault knobs to an encoded frame about to be
/// shipped. `seq` is the edge's 1-based frame sequence number (advanced
/// even for dropped frames), so a fixed plan hits the same frames on
/// every run. Returns `None` when the frame is dropped.
///
/// Corruption flips the high byte of the big-endian payload-length
/// header word — the consumer's decoder deterministically reports
/// `FrameLengthMismatch`. Truncation halves the frame (cutting either
/// mid-payload or into the header), which decodes as
/// `Truncated`/`FrameLengthMismatch`. Both mutations copy the frame —
/// the clean path stays zero-copy.
// `seq % n == 0` spelled out rather than `is_multiple_of` to hold the
// workspace MSRV (1.75; the method stabilized in 1.87).
#[allow(clippy::manual_is_multiple_of)]
fn inject_frame_fault(fault: &FaultPlan, seq: u64, frame: Bytes) -> Option<Bytes> {
    if fault.drop_every > 0 && seq % fault.drop_every == 0 {
        return None;
    }
    let corrupt = fault.corrupt_every > 0 && seq % fault.corrupt_every == 0;
    let truncate = fault.truncate_every > 0 && seq % fault.truncate_every == 0;
    if !corrupt && !truncate {
        return Some(frame);
    }
    let mut bytes = frame.as_ref().to_vec();
    if corrupt && !bytes.is_empty() {
        bytes[0] ^= 0x80;
    }
    if truncate {
        bytes.truncate(bytes.len() / 2);
    }
    Some(Bytes::from(bytes))
}

/// Renders a caught panic payload as the `FailureCause::Panic` message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".into()
    }
}

/// Per-boundary-producer framing state within one leaf unit.
pub(crate) struct EdgeStage {
    /// Global producer node id.
    pub(crate) producer: NodeId,
    /// Local sink id inside the unit's engine.
    pub(crate) local: NodeId,
    /// Tuples drained but not yet framed.
    pub(crate) pending: Vec<Tuple>,
    /// Reused columnar staging batch (columnar transport only): each
    /// frame's tuples transpose into these lanes before encoding, so
    /// steady-state framing reuses the lane allocations.
    pub(crate) col_stage: ColumnBatch,
    /// 1-based frame sequence number for deterministic fault selection;
    /// advances even for frames the fault plan drops (unlike
    /// `stats.frames`, which counts only shipped frames).
    pub(crate) seq: u64,
    /// Measured transport for this edge.
    pub(crate) stats: EdgeTransport,
}

impl EdgeStage {
    /// Fresh framing state for the edge out of `global` (local sink
    /// `local` of `dag`) on `host`.
    fn new(dag: &QueryDag, global: NodeId, local: NodeId, host: usize) -> EdgeStage {
        EdgeStage {
            producer: global,
            local,
            pending: Vec::new(),
            col_stage: ColumnBatch::new(dag.schema(local).arity()),
            seq: 0,
            stats: EdgeTransport {
                producer: global,
                from_host: host,
                ..EdgeTransport::default()
            },
        }
    }
}

/// Encodes one frame — column-contiguous through the edge's reused
/// staging batch when `columnar`, row-major otherwise — applies the
/// fault plan, and sends it through the unit's [`FrameSink`]: a
/// non-blocking attempt first, and on a full buffer one counted
/// backpressure stall followed by a bounded retry-with-backoff loop
/// (or, with `send_timeout_ms == 0`, the pre-fault-tolerance blocking
/// send). Exhausting the retry bound surfaces as a typed
/// [`FailureCause::Timeout`] instead of wedging the worker. A dropped
/// receiver (central error path) discards the frame — never a
/// deadlock. A sink whose *link* breaks (socket transports only)
/// surfaces as a typed [`FailureCause::Link`].
fn ship<S: FrameSink>(
    edge: &mut EdgeStage,
    range: std::ops::Range<usize>,
    columnar: bool,
    scratch: &mut BytesMut,
    shared: &mut TxShared<'_, S>,
) -> ExecResult<()> {
    let chunk = &edge.pending[range];
    let frame = if columnar {
        edge.col_stage.clear();
        edge.col_stage.extend_rows(chunk);
        encode_column_batch(&edge.col_stage, scratch)?
    } else {
        encode_batch(chunk, scratch)?
    };
    edge.seq += 1;
    let frame_len = frame.len();
    let frame = match inject_frame_fault(&shared.fault, edge.seq, frame) {
        Some(f) => f,
        None => {
            // Dropped by the fault plan: the frame never reaches the
            // wire, so it counts as a drop, not a shipment.
            shared.dropped += 1;
            return Ok(());
        }
    };
    if shared.fault.slow_host == Some(shared.host) && shared.fault.slow_micros > 0 {
        std::thread::sleep(Duration::from_micros(shared.fault.slow_micros));
    }
    edge.stats.frames += 1;
    edge.stats.tuples += chunk.len() as u64;
    edge.stats.bytes += (frame_len - FRAME_HEADER_LEN) as u64;
    shared.depth.inc();
    let link_failure = |shared: &TxShared<'_, S>, msg: String| -> ExecError {
        HostFailure {
            host: shared.host,
            cause: FailureCause::Link(msg),
            tuples_processed: shared.tuples.load(Ordering::Relaxed),
        }
        .into()
    };
    let first = shared
        .sink
        .try_send((edge.producer, frame))
        .map_err(|e| link_failure(shared, e))?;
    match first {
        SendOutcome::Sent => Ok(()),
        SendOutcome::Closed => {
            shared.depth.dec();
            Ok(())
        }
        SendOutcome::Full(mut msg) => {
            shared.stalls += 1;
            if shared.send_timeout_ms == 0 {
                // Unbounded mode: plain blocking send, as before.
                let outcome = shared.sink.send(msg).map_err(|e| link_failure(shared, e))?;
                if let SendOutcome::Closed = outcome {
                    shared.depth.dec();
                }
                return Ok(());
            }
            // Bounded retry with exponential backoff, capped at the
            // send timeout: a consumer that never drains surfaces as a
            // typed timeout failure instead of a wedged worker.
            let deadline = Duration::from_millis(shared.send_timeout_ms);
            let started = Instant::now();
            let mut backoff = Duration::from_micros(100);
            loop {
                match shared
                    .sink
                    .try_send(msg)
                    .map_err(|e| link_failure(shared, e))?
                {
                    SendOutcome::Sent => return Ok(()),
                    SendOutcome::Closed => {
                        shared.depth.dec();
                        return Ok(());
                    }
                    SendOutcome::Full(m) => {
                        msg = m;
                        edge.stats.retries += 1;
                        let waited = started.elapsed();
                        if waited >= deadline {
                            shared.depth.dec();
                            return Err(HostFailure {
                                host: shared.host,
                                cause: FailureCause::Timeout {
                                    waited_ms: waited.as_millis() as u64,
                                },
                                tuples_processed: shared.tuples.load(Ordering::Relaxed),
                            }
                            .into());
                        }
                        std::thread::sleep(backoff.min(deadline - waited));
                        backoff = (backoff * 2).min(Duration::from_millis(10));
                    }
                }
            }
        }
    }
}

/// The central unit's outcome: its engine results plus the failure
/// records it observed on the receive side (always empty in strict
/// mode, where the first such failure aborts instead).
pub(crate) struct CentralOutcome {
    pub(crate) run: UnitRun,
    pub(crate) failures: Vec<HostFailure>,
    /// Corrupt frames detected, recorded, and discarded (partial mode).
    pub(crate) corrupt_dropped: u64,
}

/// Runs the central unit: its own feed first (the splitter hands it
/// over once, complete — empty unless host-serial mode keeps the
/// aggregator host's scans here), then every boundary frame until the
/// last producer hangs up.
pub(crate) fn run_central_unit<R: FrameSource>(
    slice: &UnitPlan,
    feed: chan::Receiver<Vec<Feed>>,
    cfg: &SimConfig,
    mut rx: R,
    depth: &SharedGauge,
    host_of: &[usize],
) -> ExecResult<CentralOutcome> {
    let transport = cfg.transport;
    let agg = slice.host;
    let sinks: Vec<NodeId> = slice.outputs.iter().map(|(_, g)| slice.local[g]).collect();
    let mut engine = Engine::with_sinks(&slice.dag, &sinks)?;
    engine.set_batch_config(cfg.batch);
    for (scan, mut batch) in feed.recv().unwrap_or_default() {
        push_feed(
            &mut engine,
            slice.local[&scan],
            &mut batch,
            transport.columnar,
        )?;
    }
    // Then every boundary frame, decoded straight into the engine's
    // pooled buffers; merge operators align the independently-
    // progressing inputs. Dropping `rx` on an early error unblocks any
    // producer stalled on a full channel. The receive wait is bounded
    // (`send_timeout_ms`, 0 = unbounded): a quiet-but-connected
    // boundary past the bound means a hung peer, surfaced as a typed
    // timeout attributed to this observer host.
    let mut failures: Vec<HostFailure> = Vec::new();
    let mut corrupt_dropped: u64 = 0;
    let mut rx_tuples: u64 = 0;
    let timeout = Duration::from_millis(transport.send_timeout_ms);
    loop {
        let outcome = if transport.send_timeout_ms == 0 {
            rx.recv()
        } else {
            rx.recv_timeout(timeout)
        };
        let (producer, frame) = match outcome {
            Ok(RecvOutcome::Frame(msg)) => msg,
            Ok(RecvOutcome::Closed) => break,
            Ok(RecvOutcome::Timeout) => {
                let failure = HostFailure {
                    host: agg,
                    cause: FailureCause::Timeout {
                        waited_ms: transport.send_timeout_ms,
                    },
                    tuples_processed: rx_tuples,
                };
                if transport.partial_results {
                    // Give up on the quiet boundary but keep what
                    // arrived: record the failure and finish the
                    // surviving epochs.
                    failures.push(failure);
                    break;
                }
                return Err(failure.into());
            }
            Err(msg) => {
                // The receive side's link itself broke (socket
                // transports only; channels cannot fail). Attribute to
                // the observing aggregator host.
                let failure = HostFailure {
                    host: agg,
                    cause: FailureCause::Link(msg),
                    tuples_processed: rx_tuples,
                };
                if transport.partial_results {
                    failures.push(failure);
                    break;
                }
                return Err(failure.into());
            }
        };
        depth.dec();
        let pseudo = slice.remote_in[&producer];
        match engine.push_frame(pseudo, frame) {
            Ok(n) => rx_tuples += n as u64,
            Err(ExecError::Wire(e)) => {
                // Corrupt boundary frame: attribute to the producing
                // host. Strict mode fails the run; partial mode drops
                // the frame, records the failure, and keeps consuming.
                let failure = HostFailure {
                    host: host_of[producer],
                    cause: FailureCause::Decode(e),
                    tuples_processed: rx_tuples,
                };
                if transport.partial_results {
                    corrupt_dropped += 1;
                    failures.push(failure);
                } else {
                    return Err(failure.into());
                }
            }
            Err(other) => return Err(other),
        }
    }
    engine.finish()?;
    let counters = engine.counters().to_vec();
    let node_metrics = engine.metrics();
    let outputs = slice
        .outputs
        .iter()
        .map(|&(idx, g)| (idx, engine.output(slice.local[&g])))
        .collect();
    Ok(CentralOutcome {
        run: UnitRun {
            counters,
            node_metrics,
            outputs,
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
        },
        failures,
        corrupt_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_optimizer::{optimize, OptimizerConfig, Partitioning};
    use qap_partition::PartitionSet;
    use qap_sql::QuerySetBuilder;
    use qap_trace::{generate, TraceConfig};
    use qap_types::Catalog;

    use crate::run_distributed;
    use crate::splitter::{compute_units, slice_unit};
    use crate::transport::TransportConfig;

    fn section_3_2() -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.add_query(
            "heavy_flows",
            "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
        )
        .unwrap();
        b.add_query(
            "flow_pairs",
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
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

    fn check_matches(cfg: &SimConfig) {
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(21));
        for (hosts, part) in [
            (
                3,
                Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            ),
            (
                2,
                Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 2),
            ),
            (4, Partitioning::round_robin(4)),
        ] {
            let plan = optimize(&dag, &part, &OptimizerConfig::full()).unwrap();
            let single = run_distributed(&plan, &trace, cfg).unwrap();
            let threaded = run_distributed_threaded(&plan, &trace, cfg).unwrap();
            assert_eq!(single.outputs.len(), threaded.outputs.len());
            for (s, t) in single.outputs.iter().zip(threaded.outputs.iter()) {
                assert_eq!(s.0, t.0);
                assert_eq!(
                    sorted(s.1.clone()),
                    sorted(t.1.clone()),
                    "{} hosts, output {}",
                    hosts,
                    s.0
                );
            }
            // Same tuple-flow totals ⇒ same accounted work.
            assert_eq!(
                single.metrics.aggregator_rx_tuples,
                threaded.metrics.aggregator_rx_tuples
            );
            // The measured frame path must carry exactly the transfer
            // tuples the derived accounting charges. Partition-parallel
            // runs ship *every* transfer (including the aggregator
            // host's own leaf→central loopback edges) as frames;
            // host-serial keeps agg-local leaf output in-engine, so its
            // frames carry only the cross-host subset.
            let expected = if cfg.transport.partition_parallel {
                threaded.metrics.total_transfers
            } else {
                let agg = plan.partitioning.aggregator_host;
                threaded
                    .metrics
                    .host_tx_tuples
                    .iter()
                    .enumerate()
                    .filter(|&(h, _)| h != agg)
                    .map(|(_, &t)| t)
                    .sum()
            };
            assert_eq!(
                threaded.metrics.transport.tuples(),
                expected,
                "{hosts} hosts: frame path vs derived accounting"
            );
        }
    }

    #[test]
    fn threaded_matches_single_threaded() {
        check_matches(&SimConfig::default());
    }

    #[test]
    fn empty_unit_is_a_planning_error() {
        // An empty node set used to silently pin a phantom unit to host
        // 0; it must surface as a planning error instead.
        let dag = section_3_2();
        let plan = optimize(
            &dag,
            &Partitioning::round_robin(2),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let err = slice_unit(&plan, &[]).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlan(msg) if msg.contains("no nodes")),
            "got {err}"
        );
    }

    #[test]
    fn host_serial_matches_single_threaded() {
        let cfg = SimConfig {
            transport: TransportConfig::default().host_serial(),
            ..SimConfig::default()
        };
        check_matches(&cfg);
    }

    #[test]
    fn tight_channel_small_frames_match() {
        let cfg = SimConfig {
            transport: TransportConfig::new(1, 7),
            ..SimConfig::default()
        };
        check_matches(&cfg);
    }

    #[test]
    fn row_frames_match_single_threaded() {
        let cfg = SimConfig {
            transport: TransportConfig::default().with_columnar(false),
            ..SimConfig::default()
        };
        check_matches(&cfg);
    }

    #[test]
    fn columnar_and_row_frames_carry_identical_streams() {
        // The frame representation is a pure encoding choice: both
        // modes ship the same tuple streams chunked into the same
        // frames; only the payload bytes differ (columnar drops the
        // per-tuple headers and per-value tags on typed lanes).
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(13));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let col = run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let row_cfg = SimConfig {
            transport: TransportConfig::default().with_columnar(false),
            ..SimConfig::default()
        };
        let row = run_distributed_threaded(&plan, &trace, &row_cfg).unwrap();
        let (ct, rt) = (&col.metrics.transport, &row.metrics.transport);
        assert_eq!(ct.tuples(), rt.tuples());
        assert_eq!(ct.frames, rt.frames);
        for (ce, re) in ct.edges.iter().zip(&rt.edges) {
            assert_eq!(
                (ce.producer, ce.frames, ce.tuples),
                (re.producer, re.frames, re.tuples)
            );
        }
        assert!(ct.payload_bytes() > 0);
        for (c, r) in col.outputs.iter().zip(row.outputs.iter()) {
            assert_eq!(sorted(c.1.clone()), sorted(r.1.clone()), "output {}", c.0);
        }
    }

    #[test]
    fn partition_parallel_spawns_per_component_units() {
        let dag = section_3_2();
        let plan = optimize(
            &dag,
            &Partitioning::round_robin(4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let agg = plan.partitioning.aggregator_host;
        let parallel = compute_units(&plan, agg, &TransportConfig::default());
        let serial = compute_units(&plan, agg, &TransportConfig::default().host_serial());
        // Host-serial: at most one unit per host. Partition-parallel:
        // one leaf unit per partition pipeline — strictly more workers
        // whenever hosts own multiple partitions.
        assert!(serial.len() <= plan.partitioning.hosts);
        assert!(
            parallel.len() > serial.len(),
            "parallel {} vs serial {}",
            parallel.len(),
            serial.len()
        );
        // Every node lands in exactly one unit, and unit 0 is exactly
        // the central tier.
        let total: usize = parallel.iter().map(|u| u.len()).sum();
        assert_eq!(total, plan.dag.len());
        for &id in &parallel[0] {
            assert!(plan.central[id]);
        }
        for unit in &parallel[1..] {
            for &id in unit {
                assert!(!plan.central[id]);
            }
        }
    }

    #[test]
    fn adaptive_threaded_is_bit_identical_and_migrates() {
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

        let stat = run_distributed_threaded(&plan, &trace, &SimConfig::default()).unwrap();
        let mut cfg = SimConfig::default();
        // 45s samples against 60s windows: the drain boundary splits
        // live windows, so group state genuinely ships between workers.
        cfg.transport.rebalance = RebalanceConfig::adaptive()
            .with_threshold(1.2)
            .with_consecutive(1)
            .with_sample_secs(45);
        let adap = run_distributed_threaded(&plan, &trace, &cfg).unwrap();

        assert!(adap.metrics.rebalance_fallback.is_none());
        assert!(adap.metrics.repartitions >= 1, "no repartition fired");
        assert!(adap.metrics.migrated_keys > 0, "no state shipped");
        assert!(adap.failures.is_empty());
        assert_eq!(stat.outputs.len(), adap.outputs.len());
        for (s, a) in stat.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(s.0, a.0);
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "{}", s.0);
        }
        // The detector, greedy planner and splitter are shared with the
        // simulator — the whole control loop must agree run for run.
        let sim = run_distributed(&plan, &trace, &cfg).unwrap();
        assert_eq!(adap.metrics.repartitions, sim.metrics.repartitions);
        assert_eq!(adap.metrics.migrated_keys, sim.metrics.migrated_keys);
        for (s, a) in sim.outputs.iter().zip(adap.outputs.iter()) {
            assert_eq!(sorted(s.1.clone()), sorted(a.1.clone()), "vs sim: {}", s.0);
        }
    }

    #[test]
    fn adaptive_threaded_falls_back_on_ineligible_plans() {
        use crate::rebalance::RebalanceConfig;

        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(21));
        let mut cfg = SimConfig::default();
        cfg.transport.rebalance = RebalanceConfig::adaptive();
        // Round-robin has no key to re-route: static fallback.
        let rr_plan = optimize(
            &dag,
            &Partitioning::round_robin(3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let r = run_distributed_threaded(&rr_plan, &trace, &cfg).unwrap();
        assert!(r.metrics.rebalance_fallback.is_some());
        assert_eq!(r.metrics.repartitions, 0);
        let s = run_distributed_threaded(&rr_plan, &trace, &SimConfig::default()).unwrap();
        for (a, b) in s.outputs.iter().zip(r.outputs.iter()) {
            assert_eq!(sorted(a.1.clone()), sorted(b.1.clone()));
        }
        // Host-serial decomposition parks the aggregator's scans in the
        // central unit: they are pinned, and the controller runs
        // instead of falling back.
        let mut fb = QuerySetBuilder::new(Catalog::with_network_schemas());
        fb.add_query(
            "flows",
            "SELECT tb, srcIP, COUNT(*) as pkts FROM TCP GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        let hash_plan = optimize(
            &fb.build(),
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let mut serial = cfg;
        serial.transport = serial.transport.host_serial();
        let r = run_distributed_threaded(&hash_plan, &trace, &serial).unwrap();
        assert_eq!(r.metrics.rebalance_fallback, None);
    }

    #[test]
    fn measured_frame_bytes_match_derived_estimate() {
        // All-numeric schemas: the *row* wire encoding costs exactly
        // 2 + 9·arity bytes per tuple, so under row frames the measured
        // payload must equal the cost model's derived estimate.
        // (Columnar frames pack typed lanes and cost less — the
        // estimate deliberately models the row encoding.)
        let dag = section_3_2();
        let trace = generate(&TraceConfig::tiny(5));
        let plan = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap();
        let cfg = SimConfig {
            transport: TransportConfig::default().with_columnar(false),
            ..SimConfig::default()
        };
        let result = run_distributed_threaded(&plan, &trace, &cfg).unwrap();
        let derived: f64 = result
            .metrics
            .host_rx_bytes_per_sec
            .iter()
            .map(|b| b * result.metrics.duration_secs)
            .sum();
        let measured = result.metrics.transport.payload_bytes() as f64;
        assert!(
            (derived - measured).abs() < 0.5,
            "derived {derived} vs measured {measured}"
        );
    }
}
