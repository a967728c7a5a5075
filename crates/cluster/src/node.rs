//! The node daemon: hosts one node's share of a distributed collaborative
//! search and serves the node protocol.
//!
//! A node accepts [`NodeMsg::Start`] with a [`MeshJob`], spawns one
//! [`CollabSearcher`] thread per local searcher, and routes incoming
//! [`NodeMsg::Exchange`] frames into the addressed searcher's inbox. The
//! searchers' outgoing links mix transports: a local peer gets the plain
//! in-process channel, a remote peer a [`TcpTransport`] over the node's
//! shared per-peer connection — the rotation cannot tell the difference.
//!
//! # Determinism contract
//!
//! Node `k` of an `n`-node mesh with `s` searchers per node hosts the
//! global searcher ids `k*s .. (k+1)*s`. It derives the *full* stream set
//! `streams(seed, n*s)` and, for each local id, draws the communication
//! list first and the parameter perturbation second from that id's own
//! stream — the same order `ParallelVariant::Collaborative` (on either
//! clock) and the virtual mesh use, so all builds agree on every list and
//! every parameter.

use crate::membership::{Member, Membership};
use crate::proto::{ExchangeEntry, MeshJob, NodeMsg};
use crate::transport::{PeerConn, RouteTable, TcpTransport, DEFAULT_NET_TIMEOUT};
use crossbeam::channel::{unbounded, Sender};
use deme::multisearch::{comm_order, ChannelTransport, Endpoint, Transport};
use detrand::{streams, Xoshiro256StarStar};
use pareto::Archive;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use tsmo_core::{searcher_cfg, CancelToken, CollabSearcher, FrontEntry, TsmoConfig};
use tsmo_faults::{FaultConfig, FaultHook, FaultPlan};
use tsmo_obs::{metrics::names, MemoryRecorder, Recorder};

/// Default bound on how long an accepted connection may stay silent before
/// its first frame; see [`NodeConfig::peer_timeout`].
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(10);

/// Node daemon configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Connect / read / write timeout for links to peer nodes.
    pub net_timeout: Duration,
    /// Read timeout applied to an accepted connection until its first
    /// frame arrives: a peer that connects and never speaks is dropped
    /// after this long instead of parking a serve thread forever. Once the
    /// first frame lands the peer is known good and reads block freely.
    pub peer_timeout: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            net_timeout: DEFAULT_NET_TIMEOUT,
            peer_timeout: DEFAULT_PEER_TIMEOUT,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Running,
    Done,
}

/// What a finished node job reports.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Non-dominated merge of the node's searcher archives.
    pub front: Vec<ExchangeEntry>,
    /// Evaluations consumed across the node's searchers.
    pub evaluations: u64,
    /// Iterations performed across the node's searchers.
    pub iterations: u64,
}

struct NodeState {
    phase: Phase,
    node_index: Option<usize>,
    /// Inboxes of the locally hosted searchers, by global searcher id.
    inboxes: HashMap<usize, Sender<FrontEntry>>,
    cancel: Option<CancelToken>,
    runner: Option<JoinHandle<()>>,
    report: Option<NodeReport>,
    /// JSONL span/timeline trace of the last finished job, served to
    /// `NodeMsg::Trace` so a controller can merge the mesh-wide trace.
    last_trace: Option<String>,
}

/// One archive checkpoint held on behalf of another node (its ring
/// predecessor ships them here). Served to `ReplicaFetch` so a controller
/// can recover a dead node's front.
struct ReplicaHeld {
    epoch: u64,
    evaluations: u64,
    entries: Vec<ExchangeEntry>,
}

struct NodeShared {
    addr: SocketAddr,
    net_timeout: Duration,
    peer_timeout: Duration,
    recorder: Arc<MemoryRecorder>,
    state: Mutex<NodeState>,
    stopping: AtomicBool,
    /// Clones of the accepted sockets, so a stop can unblock the
    /// connection threads parked in `read_frame`.
    conns: Mutex<Vec<TcpStream>>,
    /// The mesh membership view of the current job (`None` while idle).
    /// Updated by `Join`/`Leave` (coordinator) and `MemberUpdate`
    /// (broadcast); mirrored into `routes` so exchange links follow it.
    membership: Mutex<Option<Membership>>,
    /// Slot-addressed routes of the running job's exchange links.
    routes: Mutex<Option<Arc<RouteTable>>>,
    /// Checkpoints held for other nodes, by their slot.
    replicas: Mutex<HashMap<usize, ReplicaHeld>>,
    /// The running job's continuously updated merged front, published by
    /// the searcher threads and read by the checkpoint replicator.
    live: Mutex<Archive<FrontEntry>>,
    /// Evaluations consumed so far by the running job's searchers.
    live_evals: AtomicU64,
}

impl NodeShared {
    fn state(&self) -> MutexGuard<'_, NodeState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn membership(&self) -> MutexGuard<'_, Option<Membership>> {
        self.membership
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn routes(&self) -> Option<Arc<RouteTable>> {
        self.routes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn replicas(&self) -> MutexGuard<'_, HashMap<usize, ReplicaHeld>> {
        self.replicas
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn live(&self) -> MutexGuard<'_, Archive<FrontEntry>> {
        self.live
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Publishes a searcher's current archive into the live front and
    /// accounts `delta` newly consumed evaluations.
    fn publish_live(&self, snapshot: Vec<FrontEntry>, delta: u64) {
        self.live().absorb(snapshot);
        self.live_evals.fetch_add(delta, Ordering::Relaxed);
    }
}

/// A running node daemon. [`halt`](Noded::halt) stops it; dropping the
/// handle does not.
pub struct Noded {
    shared: Arc<NodeShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Noded {
    /// Binds the listener and starts serving the node protocol.
    pub fn start(config: NodeConfig) -> io::Result<Noded> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NodeShared {
            addr,
            net_timeout: config.net_timeout,
            peer_timeout: config.peer_timeout,
            recorder: Arc::new(MemoryRecorder::metrics_only()),
            state: Mutex::new(NodeState {
                phase: Phase::Idle,
                node_index: None,
                inboxes: HashMap::new(),
                cancel: None,
                runner: None,
                report: None,
                last_trace: None,
            }),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            membership: Mutex::new(None),
            routes: Mutex::new(None),
            replicas: Mutex::new(HashMap::new()),
            live: Mutex::new(Archive::new(TsmoConfig::default().archive_capacity)),
            live_evals: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Noded {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Prometheus exposition of the node's telemetry.
    pub fn prometheus(&self) -> String {
        self.shared.recorder.prometheus()
    }

    /// Blocks until the daemon stops — a wire `Shutdown` frame ends the
    /// accept loop — then joins the worker threads.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let runner = self.shared.state().runner.take();
        if let Some(runner) = runner {
            let _ = runner.join();
        }
    }

    /// Stops the daemon: cancels a running job, closes the listener, and
    /// joins the acceptor. Searcher threads of a cancelled job finish
    /// their current iteration and are joined by the runner thread.
    pub fn halt(mut self) {
        request_stop(&self.shared);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let runner = self.shared.state().runner.take();
        if let Some(runner) = runner {
            let _ = runner.join();
        }
    }
}

/// Flags the daemon down, cancels any running job, and pokes the listener
/// so its blocking `accept` returns.
fn request_stop(shared: &Arc<NodeShared>) {
    shared.stopping.store(true, Ordering::Release);
    if let Some(cancel) = shared.state().cancel.clone() {
        cancel.cancel();
    }
    // Unblock connection threads parked in `read_frame`, then poke the
    // listener so its blocking `accept` returns and sees the flag.
    let conns = std::mem::take(
        &mut *shared
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for conn in conns {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(500));
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NodeShared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        conns.push(std::thread::spawn(move || serve_conn(stream, &shared)));
    }
    for conn in conns {
        let _ = conn.join();
    }
}

fn serve_conn(stream: TcpStream, shared: &Arc<NodeShared>) {
    let _ = stream.set_nodelay(true);
    if let Ok(clone) = stream.try_clone() {
        shared
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(clone);
    }
    serve_frames(&stream, shared);
    // A clone of this socket lives in `conns` for halt(); dropping our
    // handle alone would leave the connection half-open, so shut it down
    // explicitly — the client sees EOF the moment we stop serving it.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn serve_frames(mut stream: &TcpStream, shared: &Arc<NodeShared>) {
    // Until the first frame arrives the peer has proven nothing; bound the
    // read so a half-open handshake cannot park this thread forever.
    let _ = stream.set_read_timeout(Some(shared.peer_timeout));
    let mut awaiting_first_frame = true;
    loop {
        let text = match tsmo_obs::frame::read_frame(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) | Err(_) => return, // client hung up (or never spoke)
        };
        if awaiting_first_frame {
            awaiting_first_frame = false;
            let _ = stream.set_read_timeout(None);
        }
        let reply = match NodeMsg::parse(&text) {
            Ok(msg) => handle(msg, shared),
            Err(e) => NodeMsg::Error { message: e },
        };
        let shutting_down = reply == NodeMsg::ShutdownOk;
        if tsmo_obs::frame::write_frame(&mut stream, &reply.to_json()).is_err() {
            return;
        }
        if shutting_down {
            request_stop(shared);
            return;
        }
    }
}

fn handle(msg: NodeMsg, shared: &Arc<NodeShared>) -> NodeMsg {
    match msg {
        NodeMsg::Hello { .. } => {
            let index = shared.state().node_index;
            NodeMsg::HelloAck {
                node: index.map_or(u64::MAX, |i| i as u64),
            }
        }
        NodeMsg::Exchange { from, to, entry } => {
            let state = shared.state();
            match state.inboxes.get(&(to as usize)) {
                Some(tx) if tx.send(entry.to_front()).is_ok() => {
                    drop(state);
                    // Per-peer attribution happens here, where the sender
                    // id is known; the receiving searcher's drain counts
                    // the unlabeled totals — splitting the two keeps every
                    // exchange counted exactly once per metric.
                    shared
                        .recorder
                        .counter_add(&names::exchanges_received_from_peer(from as usize), 1);
                    NodeMsg::ExchangeAck
                }
                _ => NodeMsg::Error {
                    message: format!("searcher {to} is not accepting exchanges here"),
                },
            }
        }
        NodeMsg::Start { job } => start_job(job, shared),
        NodeMsg::Status => {
            let phase = shared.state().phase;
            NodeMsg::NodeStatus {
                state: match phase {
                    Phase::Idle => "idle",
                    Phase::Running => "running",
                    Phase::Done => "done",
                }
                .to_string(),
            }
        }
        NodeMsg::Front => {
            let state = shared.state();
            match (&state.phase, &state.report) {
                (Phase::Done, Some(report)) => NodeMsg::FrontReply {
                    entries: report.front.clone(),
                    evaluations: report.evaluations,
                    iterations: report.iterations,
                },
                _ => NodeMsg::Error {
                    message: "node has no finished job".to_string(),
                },
            }
        }
        NodeMsg::Metrics => NodeMsg::MetricsReply {
            prometheus: shared.recorder.prometheus(),
        },
        NodeMsg::MetricsFetch => NodeMsg::MetricsFetchReply {
            registry: shared.recorder.metrics().to_json(),
        },
        NodeMsg::Trace => NodeMsg::TraceReply {
            jsonl: shared.state().last_trace.clone().unwrap_or_default(),
        },
        NodeMsg::Join { addr } => admit_member(&addr, shared),
        NodeMsg::Leave { node } => retire_member(node as usize, shared),
        NodeMsg::MemberUpdate { epoch, members } => {
            let mut guard = shared.membership();
            match guard.as_mut() {
                Some(view) => {
                    // Idempotent by epoch: stale or duplicate broadcasts
                    // leave the view untouched.
                    if epoch > view.epoch {
                        view.epoch = epoch;
                        view.members = members;
                        shared
                            .recorder
                            .gauge_max(names::MEMBERSHIP_EPOCH, epoch as f64);
                        let members = view.members.clone();
                        drop(guard);
                        sync_routes(shared, &members);
                        return NodeMsg::MemberUpdateAck { epoch };
                    }
                    NodeMsg::MemberUpdateAck { epoch: view.epoch }
                }
                None => NodeMsg::Error {
                    message: "no membership view: no job was started here".to_string(),
                },
            }
        }
        NodeMsg::Members => match shared.membership().as_ref() {
            Some(view) => NodeMsg::MembersReply {
                epoch: view.epoch,
                members: view.members.clone(),
            },
            None => NodeMsg::Error {
                message: "no membership view: no job was started here".to_string(),
            },
        },
        NodeMsg::Checkpoint {
            from,
            epoch,
            evaluations,
            entries,
        } => {
            // Checkpoints from one predecessor arrive in order over its
            // serialized connection, so the newest write wins.
            shared.replicas().insert(
                from as usize,
                ReplicaHeld {
                    epoch,
                    evaluations,
                    entries,
                },
            );
            shared.recorder.counter_add(names::ARCHIVES_REPLICATED, 1);
            NodeMsg::CheckpointAck
        }
        NodeMsg::ReplicaFetch { node } => {
            let replicas = shared.replicas();
            match replicas.get(&(node as usize)) {
                Some(r) => NodeMsg::ReplicaReply {
                    node,
                    epoch: r.epoch,
                    evaluations: r.evaluations,
                    entries: r.entries.clone(),
                    found: true,
                },
                None => NodeMsg::ReplicaReply {
                    node,
                    epoch: 0,
                    evaluations: 0,
                    entries: Vec::new(),
                    found: false,
                },
            }
        }
        NodeMsg::Stop => {
            if let Some(cancel) = shared.state().cancel.clone() {
                cancel.cancel();
            }
            NodeMsg::Stopped
        }
        NodeMsg::Shutdown => NodeMsg::ShutdownOk,
        // Reply-shaped messages are not requests.
        other => NodeMsg::Error {
            message: format!("unexpected message: {}", other.to_json()),
        },
    }
}

/// Admits `addr` into the membership view (coordinator side of a join):
/// revive-or-append the slot, broadcast the new view to the other live
/// members, and answer with the slot, the view, and this node's current
/// merged front so the joiner warm-starts instead of from scratch.
fn admit_member(addr: &str, shared: &Arc<NodeShared>) -> NodeMsg {
    let (epoch, slot, members) = {
        let mut guard = shared.membership();
        let Some(view) = guard.as_mut() else {
            return NodeMsg::Error {
                message: "cannot admit: no membership view (no job started)".to_string(),
            };
        };
        let slot = view.admit(addr);
        (view.epoch, slot, view.members.clone())
    };
    shared.recorder.counter_add(names::MEMBERS_JOINED, 1);
    shared
        .recorder
        .gauge_max(names::MEMBERSHIP_EPOCH, epoch as f64);
    sync_routes(shared, &members);
    broadcast_view(shared, epoch, &members, slot);
    let warm: Vec<ExchangeEntry> = shared
        .live()
        .items()
        .iter()
        .map(ExchangeEntry::from_front)
        .collect();
    NodeMsg::JoinAck {
        epoch,
        slot: slot as u64,
        members,
        warm,
    }
}

/// Marks slot `node` as departed (coordinator side of a leave) and
/// broadcasts the new view. Idempotent: retiring a dead slot changes
/// nothing and re-reports the current epoch.
fn retire_member(node: usize, shared: &Arc<NodeShared>) -> NodeMsg {
    let (changed, epoch, members) = {
        let mut guard = shared.membership();
        let Some(view) = guard.as_mut() else {
            return NodeMsg::Error {
                message: "cannot retire: no membership view (no job started)".to_string(),
            };
        };
        let changed = view.mark_left(node);
        (changed, view.epoch, view.members.clone())
    };
    if changed {
        shared.recorder.counter_add(names::MEMBERS_LEFT, 1);
        shared
            .recorder
            .gauge_max(names::MEMBERSHIP_EPOCH, epoch as f64);
        sync_routes(shared, &members);
        broadcast_view(shared, epoch, &members, node);
    }
    NodeMsg::LeaveAck { epoch }
}

/// Mirrors a membership view into the running job's route table: live
/// slots route to their address, dead slots to nothing — so exchange
/// sends to a departed member fail immediately instead of timing out.
fn sync_routes(shared: &Arc<NodeShared>, members: &[Member]) {
    if let Some(routes) = shared.routes() {
        routes.update(
            members
                .iter()
                .map(|m| {
                    if m.live {
                        m.addr.clone()
                    } else {
                        String::new()
                    }
                })
                .collect(),
        );
    }
}

/// Best-effort broadcast of a new view to every live member except this
/// node and `except` (the subject of the transition, who learns it from
/// the ack instead). A member that cannot be reached stays on its stale
/// view until the next broadcast; its sends fail over in the meantime.
fn broadcast_view(shared: &Arc<NodeShared>, epoch: u64, members: &[Member], except: usize) {
    let own_slot = shared.state().node_index;
    for (slot, member) in members.iter().enumerate() {
        if !member.live || slot == except || Some(slot) == own_slot {
            continue;
        }
        let update = NodeMsg::MemberUpdate {
            epoch,
            members: members.to_vec(),
        };
        let _ = PeerConn::new(member.addr.clone(), shared.net_timeout).call(&update);
    }
}

fn start_job(job: MeshJob, shared: &Arc<NodeShared>) -> NodeMsg {
    if job.searchers_per_node == 0 || job.node_index >= job.peers.len() {
        return NodeMsg::Error {
            message: "bad job: need searchers_per_node > 0 and node_index < peers.len()"
                .to_string(),
        };
    }
    let instance = match vrptw::solomon::parse(&job.instance_text) {
        Ok(inst) => Arc::new(inst),
        Err(e) => {
            return NodeMsg::Error {
                message: format!("bad instance: {e}"),
            }
        }
    };
    let mut state = shared.state();
    if state.phase == Phase::Running {
        return NodeMsg::Error {
            message: "a job is already running".to_string(),
        };
    }
    if let Some(old) = state.runner.take() {
        drop(state);
        let _ = old.join();
        state = shared.state();
    }
    let s = job.searchers_per_node;
    let local_ids: Vec<usize> = (job.node_index * s..(job.node_index + 1) * s).collect();
    let mut receivers = HashMap::new();
    state.inboxes.clear();
    for &id in &local_ids {
        let (tx, rx) = unbounded::<FrontEntry>();
        state.inboxes.insert(id, tx);
        receivers.insert(id, rx);
    }
    // Warm-start: entries handed over at admission seed every local
    // searcher's inbox exactly like received exchanges, and the live front
    // immediately, so the first checkpoint this node cuts (and any front
    // it hands a later joiner) already carries them.
    for &id in &local_ids {
        if let Some(tx) = state.inboxes.get(&id) {
            for entry in &job.warm {
                let _ = tx.send(entry.to_front());
            }
        }
    }
    // Adopt the job's view of the mesh. The Start frame carries only the
    // peer list, so every slot starts presumed live at the job's epoch; a
    // coordinator broadcast with a newer epoch corrects the dead slots,
    // and until then sends to them simply fail over (lazy convergence —
    // the strict transition order is the virtual mesh's contract, not the
    // TCP path's).
    {
        let mut membership = shared.membership();
        *membership = Some(Membership {
            epoch: job.epoch,
            members: job
                .peers
                .iter()
                .map(|a| Member {
                    addr: a.clone(),
                    live: true,
                })
                .collect(),
        });
    }
    shared
        .recorder
        .gauge_max(names::MEMBERSHIP_EPOCH, job.epoch as f64);
    *shared
        .routes
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::new(RouteTable::new(
        job.peers.clone(),
        shared.net_timeout,
    )));
    shared.replicas().clear();
    {
        let mut live = shared.live();
        *live = Archive::new(TsmoConfig::default().archive_capacity);
        live.absorb(job.warm.iter().map(ExchangeEntry::to_front));
    }
    shared.live_evals.store(0, Ordering::Relaxed);
    let cancel = CancelToken::never();
    state.cancel = Some(cancel.clone());
    state.phase = Phase::Running;
    state.node_index = Some(job.node_index);
    state.report = None;
    let runner = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let (report, trace) = run_node_job(&job, &instance, receivers, cancel, &shared);
            let mut state = shared.state();
            state.inboxes.clear();
            state.report = Some(report);
            state.last_trace = Some(trace);
            state.phase = Phase::Done;
        })
    };
    state.runner = Some(runner);
    NodeMsg::Started
}

/// Runs this node's searchers to completion and merges their archives.
/// Returns the report plus the JSONL span/timeline trace of the run.
fn run_node_job(
    job: &MeshJob,
    instance: &Arc<vrptw::Instance>,
    mut receivers: HashMap<usize, crossbeam::channel::Receiver<FrontEntry>>,
    cancel: CancelToken,
    shared: &Arc<NodeShared>,
) -> (NodeReport, String) {
    let nodes = job.peers.len();
    let s = job.searchers_per_node;
    let n_total = nodes * s;
    // Every node stamps its spans with the job's one trace id; a zero id
    // falls back to deriving it from the seed, which all nodes share, so
    // the whole mesh still agrees on the id.
    let trace_id = if job.trace_id != 0 {
        job.trace_id
    } else {
        tsmo_obs::trace_id_from_seed(job.seed)
    };
    let base_cfg = TsmoConfig {
        max_evaluations: job.max_evaluations,
        neighborhood_size: job.neighborhood_size.max(2),
        stagnation_limit: job.stagnation_limit.max(1),
        trace_id: Some(trace_id),
        timeline_every: Some(job.neighborhood_size.max(2) as u64 * 10),
        ..TsmoConfig::default()
    }
    .with_seed(job.seed);
    let hook: Arc<dyn FaultHook> = if job.fault_rate > 0.0 {
        FaultPlan::shared(FaultConfig::exchange_only(job.fault_seed, job.fault_rate))
    } else {
        tsmo_faults::none()
    };
    // The searchers record onto a per-job event recorder (spans and
    // timeline samples included); its metrics fold into the daemon's
    // long-lived registry after the run, so `Metrics` keeps the lifetime
    // totals while `Trace` serves just this job's stream.
    let events = Arc::new(MemoryRecorder::new().with_span_events());
    let recorder: Arc<dyn Recorder> = Arc::clone(&events) as Arc<dyn Recorder>;
    // Slot-addressed routes: all local searchers resolve a remote peer's
    // node through the shared table at send time, so membership changes
    // reroute live links without rebuilding them.
    let routes = shared.routes().expect("route table installed at start");
    let local_txs: HashMap<usize, Sender<FrontEntry>> = shared.state().inboxes.clone();

    let done = AtomicBool::new(false);
    let mut rngs = streams(job.seed, n_total);
    let results: Vec<_> = std::thread::scope(|scope| {
        // The replicator ships the live front to the ring successor every
        // `replication_ms`, plus one final cut after the searchers finish,
        // so a node killed even after its budget is spent loses nothing.
        let replicator = (job.replication_ms > 0).then(|| {
            let shared = Arc::clone(shared);
            let every = Duration::from_millis(job.replication_ms);
            let node_index = job.node_index;
            let done = &done;
            scope.spawn(move || replicate_loop(&shared, node_index, every, done))
        });
        let mut handles = Vec::with_capacity(s);
        let local = &mut rngs[job.node_index * s..(job.node_index + 1) * s];
        for (offset, slot) in local.iter_mut().enumerate() {
            let id = job.node_index * s + offset;
            // Draw order contract: communication list first, perturbation
            // second, both from this id's own stream.
            let order = comm_order(n_total, id, slot);
            let cfg = searcher_cfg(&base_cfg, id, slot);
            let rng = std::mem::replace(slot, Xoshiro256StarStar::seed_from_u64(0));
            let links: Vec<(usize, Box<dyn Transport<FrontEntry>>)> = order
                .into_iter()
                .map(|p| {
                    let tx: Box<dyn Transport<FrontEntry>> = match local_txs.get(&p) {
                        Some(tx) => Box::new(ChannelTransport::new(tx.clone())),
                        None => Box::new(TcpTransport::routed(
                            Arc::clone(&routes),
                            p / s,
                            id,
                            p,
                            Arc::clone(&recorder),
                        )),
                    };
                    (p, tx)
                })
                .collect();
            let inbox = receivers.remove(&id).expect("inbox created at start");
            let mut endpoint = Endpoint::from_links(id, inbox, links);
            let instance = Arc::clone(instance);
            let recorder = Arc::clone(&recorder);
            let hook = Arc::clone(&hook);
            let cancel = cancel.clone();
            let shared = Arc::clone(shared);
            handles.push(scope.spawn(move || {
                let mut searcher =
                    CollabSearcher::new(instance, cfg, rng, recorder, id, cancel, hook);
                let mut steps = 0u64;
                let mut published = 0u64;
                while searcher.step_once(&mut endpoint) {
                    steps += 1;
                    if steps.is_multiple_of(32) {
                        let consumed = searcher.evaluations_consumed();
                        shared.publish_live(searcher.archive_snapshot(), consumed - published);
                        published = consumed;
                    }
                }
                // The final snapshot equals the finish archive (`finish`
                // only flushes sends), so the last checkpoint the
                // replicator cuts carries this searcher's complete front.
                let consumed = searcher.evaluations_consumed();
                shared.publish_live(searcher.archive_snapshot(), consumed - published);
                searcher.finish(&mut endpoint)
            }));
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("searcher panicked"))
            .collect();
        done.store(true, Ordering::Release);
        if let Some(handle) = replicator {
            let _ = handle.join();
        }
        results
    });

    let mut merged = Archive::new(base_cfg.archive_capacity);
    let mut evaluations = 0;
    let mut iterations = 0u64;
    for result in results {
        evaluations += result.evaluations;
        iterations += result.iterations as u64;
        for entry in result.archive {
            merged.insert(entry);
        }
    }
    let front = merge_warm(
        merged,
        job.warm.iter().map(ExchangeEntry::to_front).collect(),
    );
    // Publish the merged front too (it may contain warm entries no single
    // searcher holds) before the runner flips the phase; the replicator
    // has already cut its final checkpoint from the per-searcher final
    // snapshots, which carry the same elites.
    shared.publish_live(front.clone(), 0);
    shared.recorder.merge_metrics_from(&events);
    let report = NodeReport {
        front: front.iter().map(ExchangeEntry::from_front).collect(),
        evaluations,
        iterations,
    };
    (report, events.events_jsonl())
}

/// Folds warm-start entries into a node's merged front. Warm entries
/// survive the handover even when every searcher replaced them: the node
/// front a joiner reports must never lose elites the mesh had already
/// found. So crowding may drop a warm entry only when a front member
/// dominates (or equals) it; one that merely lost the crowding comparison
/// on a full archive is put back, past the capacity if need be.
fn merge_warm(mut front: Archive<FrontEntry>, warm: Vec<FrontEntry>) -> Vec<FrontEntry> {
    front.absorb(warm.iter().cloned());
    let mut items = front.into_items();
    for entry in warm {
        let w = entry.objectives.to_vector();
        let held = items.iter().any(|f| {
            let v = f.objectives.to_vector();
            v == w || pareto::dominates(&v, &w)
        });
        if !held {
            items.retain(|f| !pareto::dominates(&w, &f.objectives.to_vector()));
            items.push(entry);
        }
    }
    items
}

/// Ships the live front to the ring successor every `every`, plus one
/// final cut once the searchers are done — a node killed *after* its
/// budget is spent still leaves its complete front on the successor.
fn replicate_loop(shared: &NodeShared, node_index: usize, every: Duration, done: &AtomicBool) {
    loop {
        let mut waited = Duration::ZERO;
        while waited < every && !done.load(Ordering::Acquire) {
            let step = Duration::from_millis(10).min(every - waited);
            std::thread::sleep(step);
            waited += step;
        }
        let last = done.load(Ordering::Acquire);
        ship_checkpoint(shared, node_index);
        if last {
            return;
        }
    }
}

/// Cuts one checkpoint of the live front and ships it to the ring
/// successor. Silent on any failure: a missed checkpoint costs staleness,
/// not correctness, and the next interval retries.
fn ship_checkpoint(shared: &NodeShared, node_index: usize) {
    let (epoch, successor) = {
        let guard = shared.membership();
        let Some(view) = guard.as_ref() else { return };
        let Some(successor) = view.ring_successor(node_index) else {
            return; // alone in the ring: nowhere to replicate
        };
        (view.epoch, successor)
    };
    let Some(conn) = shared.routes().and_then(|r| r.conn(successor)) else {
        return;
    };
    let entries: Vec<ExchangeEntry> = shared
        .live()
        .items()
        .iter()
        .map(ExchangeEntry::from_front)
        .collect();
    if entries.is_empty() {
        return; // nothing learned yet
    }
    let msg = NodeMsg::Checkpoint {
        from: node_index as u64,
        epoch,
        evaluations: shared.live_evals.load(Ordering::Relaxed),
        entries,
    };
    let _ = conn.call(&msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Objectives, Solution};

    fn entry(distance: f64, vehicles: usize) -> FrontEntry {
        FrontEntry::new(
            Solution::from_routes(vec![vec![1]]),
            Objectives {
                distance,
                vehicles,
                tardiness: 0.0,
            },
        )
    }

    #[test]
    fn crowding_never_evicts_an_undominated_warm_entry() {
        // A full archive of three spread points, and a warm entry squeezed
        // next to the middle one: the most crowded point, so the capped
        // archive alone would drop it.
        let mut front = Archive::new(3);
        for (d, v) in [(0.0, 10), (5.0, 5), (10.0, 0)] {
            front.insert(entry(d, v));
        }
        let crowded = entry(5.1, 4);
        let mut capped = front.clone();
        capped.insert(crowded.clone());
        assert!(
            !capped
                .items()
                .iter()
                .any(|f| f.objectives == crowded.objectives),
            "the capped archive alone drops the crowded entry"
        );
        let dominated = entry(11.0, 11);
        let merged = merge_warm(front, vec![crowded.clone(), dominated.clone()]);
        assert!(merged.iter().any(|f| f.objectives == crowded.objectives));
        assert!(
            !merged.iter().any(|f| f.objectives == dominated.objectives),
            "a dominated warm entry may still go"
        );
        for a in &merged {
            for b in &merged {
                let (va, vb) = (a.objectives.to_vector(), b.objectives.to_vector());
                assert!(!pareto::dominates(&va, &vb), "front stays non-dominated");
            }
        }
    }
}
