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
//! Every front entry a peer hands over — an exchange, a checkpoint, a
//! job's warm start — is checked against the job's instance once, at this
//! boundary ([`vrptw::Solution::verify`]); a frame carrying an invalid
//! entry is answered with [`NodeMsg::Error`].
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

use crate::lock;
use crate::membership::{merge_warm, supersedes, Member, Membership, ReplicaStamp};
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
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

impl Phase {
    /// The wire name `NodeStatus` reports.
    fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Running => "running",
            Phase::Done => "done",
        }
    }
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
    /// The instance of the current (or last) job; peer entries are checked
    /// against it.
    instance: Option<Arc<vrptw::Instance>>,
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
    stamp: ReplicaStamp,
    entries: Vec<ExchangeEntry>,
}

struct NodeShared {
    addr: SocketAddr,
    net_timeout: Duration,
    peer_timeout: Duration,
    recorder: Arc<MemoryRecorder>,
    state: Mutex<NodeState>,
    /// Signalled with `state` when a job's phase becomes `Done`; `Wait`
    /// requests block on it.
    finished: Condvar,
    stopping: AtomicBool,
    /// Clones of the open accepted sockets by connection id, so a stop can
    /// unblock the connection threads parked in `read_frame`. A connection
    /// removes its own entry when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
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
    /// The live front, as wire entries.
    fn live_entries(&self) -> Vec<ExchangeEntry> {
        let live = lock(&self.live);
        live.items().iter().map(ExchangeEntry::from_front).collect()
    }

    /// Publishes a searcher's current archive into the live front and
    /// accounts `delta` newly consumed evaluations.
    fn publish_live(&self, snapshot: Vec<FrontEntry>, delta: u64) {
        lock(&self.live).absorb(snapshot);
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
                instance: None,
                runner: None,
                report: None,
                last_trace: None,
            }),
            finished: Condvar::new(),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
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
        let runner = lock(&self.shared.state).runner.take();
        if let Some(runner) = runner {
            let _ = runner.join();
        }
    }

    /// Stops the daemon: cancels a running job, closes the listener, and
    /// joins the acceptor. Searcher threads of a cancelled job finish
    /// their current iteration and are joined by the runner thread.
    pub fn halt(self) {
        request_stop(&self.shared);
        self.wait();
    }
}

/// Flags the daemon down, cancels any running job, and pokes the listener
/// so its blocking `accept` returns.
fn request_stop(shared: &Arc<NodeShared>) {
    shared.stopping.store(true, Ordering::Release);
    if let Some(cancel) = lock(&shared.state).cancel.clone() {
        cancel.cancel();
    }
    // Unblock connection threads parked in `read_frame`, then poke the
    // listener so its blocking `accept` returns and sees the flag.
    let conns = std::mem::take(&mut *lock(&shared.conns));
    for conn in conns.into_values() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(500));
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NodeShared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        // Join the connections that have ended, so a node serving one
        // short connection per request keeps only the live threads.
        let (ended, live) = conns.into_iter().partition(JoinHandle::is_finished);
        conns = live;
        for conn in ended {
            let _ = conn.join();
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        conns.push(std::thread::spawn(move || serve_conn(stream, id, &shared)));
    }
    for conn in conns {
        let _ = conn.join();
    }
}

fn serve_conn(stream: TcpStream, id: u64, shared: &Arc<NodeShared>) {
    let _ = stream.set_nodelay(true);
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).insert(id, clone);
    }
    // A stop raises its flag before it sweeps `conns`, so a connection
    // registered after the sweep sees the flag here. Served, it would park
    // in a read that nothing ends, and `halt` would wait on it forever.
    if !shared.stopping.load(Ordering::Acquire) {
        serve_frames(&stream, shared);
    }
    lock(&shared.conns).remove(&id);
    // A stop may have taken the clone from `conns` already, and that
    // copy keeps the socket open; shut it down explicitly so the client
    // sees EOF the moment we stop serving it.
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
            Err(e) => NodeMsg::error(e),
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
            let index = lock(&shared.state).node_index;
            NodeMsg::HelloAck {
                node: index.map_or(u64::MAX, |i| i as u64),
            }
        }
        NodeMsg::Exchange { from, to, entry } => {
            let instance = lock(&shared.state).instance.clone();
            let entry = match checked(instance.as_deref(), &entry) {
                Ok(entry) => entry,
                Err(e) => return NodeMsg::error(e),
            };
            let state = lock(&shared.state);
            match state.inboxes.get(&(to as usize)) {
                Some(tx) if tx.send(entry).is_ok() => {
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
                _ => NodeMsg::error(format!("searcher {to} is not accepting exchanges here")),
            }
        }
        NodeMsg::Start { job } => start_job(job, shared),
        NodeMsg::Status => NodeMsg::NodeStatus {
            state: lock(&shared.state).phase.name().to_string(),
        },
        NodeMsg::Wait { timeout_ms } => {
            let (state, _) = shared
                .finished
                .wait_timeout_while(
                    lock(&shared.state),
                    Duration::from_millis(timeout_ms),
                    |s| s.phase == Phase::Running,
                )
                .unwrap_or_else(PoisonError::into_inner);
            NodeMsg::NodeStatus {
                state: state.phase.name().to_string(),
            }
        }
        NodeMsg::Front => {
            let state = lock(&shared.state);
            match (&state.phase, &state.report) {
                (Phase::Done, Some(report)) => NodeMsg::FrontReply {
                    entries: report.front.clone(),
                    evaluations: report.evaluations,
                    iterations: report.iterations,
                },
                _ => NodeMsg::error("node has no finished job"),
            }
        }
        NodeMsg::Metrics => NodeMsg::MetricsReply {
            prometheus: shared.recorder.prometheus(),
        },
        NodeMsg::MetricsFetch => NodeMsg::MetricsFetchReply {
            registry: shared.recorder.metrics().to_json(),
        },
        NodeMsg::Trace => NodeMsg::TraceReply {
            jsonl: lock(&shared.state).last_trace.clone().unwrap_or_default(),
        },
        NodeMsg::Join { addr } => admit_member(&addr, shared),
        NodeMsg::Leave { node } => retire_member(node as usize, shared),
        NodeMsg::MemberUpdate { epoch, members } => {
            let mut guard = lock(&shared.membership);
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
                None => NodeMsg::error("no membership view: no job was started here"),
            }
        }
        NodeMsg::Members => match lock(&shared.membership).as_ref() {
            Some(view) => NodeMsg::MembersReply {
                epoch: view.epoch,
                members: view.members.clone(),
            },
            None => NodeMsg::error("no membership view: no job was started here"),
        },
        NodeMsg::Checkpoint {
            from,
            epoch,
            evaluations,
            entries,
        } => {
            let instance = lock(&shared.state).instance.clone();
            if let Some(bad) = entries
                .iter()
                .find_map(|e| checked(instance.as_deref(), e).err())
            {
                return NodeMsg::error(bad);
            }
            let stamp = ReplicaStamp { epoch, evaluations };
            let mut replicas = lock(&shared.replicas);
            if supersedes(stamp, replicas.get(&(from as usize)).map(|r| r.stamp)) {
                replicas.insert(from as usize, ReplicaHeld { stamp, entries });
                shared.recorder.counter_add(names::ARCHIVES_REPLICATED, 1);
            }
            NodeMsg::CheckpointAck
        }
        NodeMsg::ReplicaFetch { node } => {
            let replicas = lock(&shared.replicas);
            match replicas.get(&(node as usize)) {
                Some(r) => NodeMsg::ReplicaReply {
                    node,
                    epoch: r.stamp.epoch,
                    evaluations: r.stamp.evaluations,
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
            if let Some(cancel) = lock(&shared.state).cancel.clone() {
                cancel.cancel();
            }
            NodeMsg::Stopped
        }
        NodeMsg::Shutdown => NodeMsg::ShutdownOk,
        // Reply-shaped messages are not requests.
        other => NodeMsg::error(format!("unexpected message: {}", other.to_json())),
    }
}

/// Checks one peer-supplied entry against the job's instance
/// ([`vrptw::Solution::verify`]).
fn checked(
    instance: Option<&vrptw::Instance>,
    entry: &ExchangeEntry,
) -> Result<FrontEntry, String> {
    let instance = instance.ok_or("no job was started here")?;
    let front = entry.to_front();
    front
        .solution
        .verify(instance, entry.objectives)
        .map_err(|e| format!("bad front entry: {e}"))?;
    Ok(front)
}

/// Admits `addr` into the membership view (coordinator side of a join):
/// revive-or-append the slot, broadcast the new view to the other live
/// members, and answer with the slot, the view, and this node's current
/// merged front so the joiner warm-starts instead of from scratch.
fn admit_member(addr: &str, shared: &Arc<NodeShared>) -> NodeMsg {
    let (epoch, slot, members) = {
        let mut guard = lock(&shared.membership);
        let Some(view) = guard.as_mut() else {
            return NodeMsg::error("cannot admit: no membership view (no job started)");
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
    let warm = shared.live_entries();
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
        let mut guard = lock(&shared.membership);
        let Some(view) = guard.as_mut() else {
            return NodeMsg::error("cannot retire: no membership view (no job started)");
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
    if let Some(routes) = lock(&shared.routes).clone() {
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
    let own_slot = lock(&shared.state).node_index;
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

/// Most searchers one `Start` frame may ask the whole mesh to run. A node
/// allocates per searcher straight from the frame — an inbox channel per
/// local id and an RNG stream per global id — so the count is bounded
/// before anything is allocated.
const MAX_MESH_SEARCHERS: usize = 1024;

fn start_job(job: MeshJob, shared: &Arc<NodeShared>) -> NodeMsg {
    let mesh_searchers = job.peers.len().checked_mul(job.searchers_per_node);
    if job.searchers_per_node == 0
        || job.node_index >= job.peers.len()
        || mesh_searchers.is_none_or(|n| n > MAX_MESH_SEARCHERS)
    {
        return NodeMsg::error(format!(
            "bad job: need searchers_per_node > 0, node_index < peers.len(), \
             and at most {MAX_MESH_SEARCHERS} searchers across the mesh"
        ));
    }
    let instance = match vrptw::solomon::parse(&job.instance_text) {
        Ok(inst) => Arc::new(inst),
        Err(e) => return NodeMsg::error(format!("bad instance: {e}")),
    };
    let warm: Vec<FrontEntry> = match job
        .warm
        .iter()
        .map(|e| checked(Some(&instance), e))
        .collect()
    {
        Ok(warm) => warm,
        Err(e) => return NodeMsg::error(format!("warm start: {e}")),
    };
    let mut state = lock(&shared.state);
    if state.phase == Phase::Running {
        return NodeMsg::error("a job is already running");
    }
    if let Some(old) = state.runner.take() {
        drop(state);
        let _ = old.join();
        state = lock(&shared.state);
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
            for entry in &warm {
                let _ = tx.send(entry.clone());
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
        let mut membership = lock(&shared.membership);
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
    *lock(&shared.routes) = Some(Arc::new(RouteTable::new(
        job.peers.clone(),
        shared.net_timeout,
    )));
    lock(&shared.replicas).clear();
    {
        let mut live = lock(&shared.live);
        *live = Archive::new(TsmoConfig::default().archive_capacity);
        live.absorb(warm.iter().cloned());
    }
    shared.live_evals.store(0, Ordering::Relaxed);
    let cancel = CancelToken::never();
    state.cancel = Some(cancel.clone());
    state.phase = Phase::Running;
    state.node_index = Some(job.node_index);
    state.instance = Some(Arc::clone(&instance));
    state.report = None;
    let runner = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let (report, trace) = run_node_job(&job, &instance, warm, receivers, cancel, &shared);
            let mut state = lock(&shared.state);
            state.inboxes.clear();
            state.report = Some(report);
            state.last_trace = Some(trace);
            state.phase = Phase::Done;
            drop(state);
            shared.finished.notify_all();
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
    warm: Vec<FrontEntry>,
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
    let routes = lock(&shared.routes)
        .clone()
        .expect("route table installed at start");
    let local_txs: HashMap<usize, Sender<FrontEntry>> = lock(&shared.state).inboxes.clone();

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
    let front = merge_warm(merged, warm);
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
        let guard = lock(&shared.membership);
        let Some(view) = guard.as_ref() else { return };
        let Some(successor) = view.ring_successor(node_index) else {
            return; // alone in the ring: nowhere to replicate
        };
        (view.epoch, successor)
    };
    let Some(conn) = lock(&shared.routes).clone().and_then(|r| r.conn(successor)) else {
        return;
    };
    let entries = shared.live_entries();
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
    use std::time::Instant;

    #[test]
    fn a_connection_registered_after_a_stop_is_closed_unserved() {
        let node = Noded::start(NodeConfig::default()).expect("bind node");
        request_stop(&node.shared);
        // Stands in for a connection accepted just before the stop whose
        // thread first runs after the stop swept the open connections.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        tsmo_obs::frame::write_frame(&mut client, &NodeMsg::Status.to_json()).expect("send");
        let shared = Arc::clone(&node.shared);
        let conn = std::thread::spawn(move || serve_conn(stream, u64::MAX, &shared));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !conn.is_finished() {
            assert!(
                Instant::now() < deadline,
                "connection served after the stop"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let reply = tsmo_obs::frame::read_frame(&mut client);
        assert!(matches!(reply, Ok(None) | Err(_)), "got {reply:?}");
        node.wait();
    }
}
