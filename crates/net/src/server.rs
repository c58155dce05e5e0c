//! The threaded broker server: sessions, delivery queues, backpressure.
//!
//! # Architecture
//!
//! One accept thread hands each TCP connection to a dedicated **reader**
//! thread (decodes frames, executes requests against the shared broker)
//! paired with a **writer** thread draining that connection's bounded
//! [`OutQueue`] of encoded frames.
//!
//! The reader handles every complete frame one `read` returned as one
//! batch. A publish is parsed in place: the batch keeps its request id and
//! the span of its event body in the reader's buffer, and nothing is copied
//! out. Consecutive publishes have their bodies walked and their names
//! resolved under one vocabulary hold, and are matched by one
//! [`pubsub_broker::SharedBroker::publish_batch_into`] call,
//! which rides the broker's RCU path (one snapshot handle per batch), so
//! matching never blocks accepts or other connections. Fan-out
//! takes the registry lock once per batch and makes one push per target
//! session; the batch's acks and errors go to the connection's own queue
//! in one push, in request order. Any other frame ends the batch, which is
//! answered before that frame is handled, so a publish written before a
//! subscribe never matches it and one written after it does. Nothing ever
//! waits for more bytes: a paced connection sees one-frame batches. The
//! writer sends everything its queue holds in one write.
//!
//! # Sessions
//!
//! A connection's first frame must be `Hello`. Token [`crate::NEW_SESSION`]
//! creates a session and returns a fresh token; a non-zero token resumes
//! the session it names: the server re-attaches the session's live
//! subscription ids to the new connection (reported once each, sorted, in
//! `Ack::Hello.resumed`) and **kicks** any connection still attached — the
//! old socket is shut down and its queue closed, so exactly one connection
//! can ever speak for a session (no ghost peers). Sessions survive
//! disconnects; subscriptions are owned by the session, not the socket.
//!
//! # Delivery and backpressure
//!
//! A notify carries the publish's event body verbatim, behind its own
//! `seq` and ids ([`crate::frame::write_notify`]): the server never
//! re-encodes an event, and the bytes equal an encoded `Frame::Notify`.
//! Notifications are sequenced per session (`seq` starts at 1 and
//! increments per notify) and enqueued under the session's delivery lock,
//! so one subscriber always observes its notifications in publish order;
//! ordering across subscribers is unspecified. The configured
//! [`Backpressure`] policy governs what happens when a subscriber's queue
//! is full:
//!
//! * `Block` — the publisher waits for space: lossless, but a slow
//!   subscriber stalls publishers targeting it (never deadlocks: a dead
//!   connection closes its queue, waking blocked publishers).
//! * `Shed` — the notify is dropped and its sequence number consumed, so
//!   the subscriber sees a gap and knows deliveries were shed.
//! * `ErrorFast` — the subscriber is forcibly disconnected (its session
//!   survives and can resume).
//!
//! A batch's notifies for one session go in one push, and the policy still
//! applies to each notify: the prefix that fits is enqueued; under `Shed`
//! each one after it is shed, under `ErrorFast` the first one disconnects
//! and the rest take the detached path below.
//!
//! Notifications that match a **detached** session (subscriber currently
//! disconnected) are dropped — delivery is at-most-once; the sequence gap
//! tells a resuming client what it missed. Acks and errors are never
//! policed: they are the request/response backbone.
//!
//! # Session garbage collection
//!
//! Sessions survive disconnects indefinitely by default. With
//! [`ServerConfig::session_ttl`] set, a background reaper removes sessions
//! that have stayed detached past the TTL, unsubscribing everything they
//! own; a later resume of a reaped token gets `UnknownSession`, exactly as
//! if the token had never been issued.
//!
//! # Replication
//!
//! A connection whose first frame is `ReplHello` (instead of `Hello`)
//! never becomes a session: it turns into a one-way WAL stream. The server
//! tails its durable broker's log from the requested LSN and ships
//! `ReplSegment`/`ReplRecords` frames, falling back to chunked
//! `ReplSnapshot` transfer when the follower's position predates the
//! oldest retained segment, and heartbeating `ReplLag` (the exact
//! leader-side append position) whenever it is caught up. See DESIGN.md
//! §14 for the full replication state machine.

use crate::frame::{
    self, Ack, ErrorCode, Frame, FrameError, FrameReader, PublishRef, WireEventRef, WirePredicate,
    WireValue, WireValueRef,
};
use crate::queue::{Backpressure, OutQueue};
use parking_lot::Mutex;
use pubsub_broker::{BrokerError, SharedBroker, Validity};
use pubsub_durability::{replication, TailChunk};
use pubsub_types::faults::{self, points, FaultAction};
use pubsub_types::metrics::Counter;
use pubsub_types::{
    AttrId, CodecError, Event, FxHashMap, Predicate, Subscription, SubscriptionId, Symbol,
    TypeError, Value, Vocabulary,
};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

static CONNECTIONS: Counter = Counter::new("net.server.connections");
static FRAMES_IN: Counter = Counter::new("net.server.frames_in");
static FRAMES_OUT: Counter = Counter::new("net.server.frames_out");
static READS: Counter = Counter::new("net.server.reads");
static WRITES: Counter = Counter::new("net.server.writes");
static PUBLISH_BATCHES: Counter = Counter::new("net.server.publish_batches");
static BAD_FRAMES: Counter = Counter::new("net.server.bad_frames");
static SESSIONS_RESUMED: Counter = Counter::new("net.server.sessions_resumed");
static NOTIFIES_SHED: Counter = Counter::new("net.server.notifies_shed");
static NOTIFIES_DROPPED_DETACHED: Counter = Counter::new("net.server.notifies_dropped_detached");
static ERRORFAST_DISCONNECTS: Counter = Counter::new("net.server.errorfast_disconnects");
static SESSIONS_REAPED: Counter = Counter::new("net.server.sessions_reaped");
static REPL_STREAMS: Counter = Counter::new("net.server.repl_streams");
static PINGS: Counter = Counter::new("net.server.pings");
static SESSIONS_RESTORED: Counter = Counter::new("net.server.sessions_restored");

/// Largest WAL byte span shipped per `ReplRecords` frame. Well under
/// [`crate::frame::MAX_FRAME_BYTES`] even with per-payload length prefixes.
const TAIL_BATCH_BYTES: usize = 64 * 1024;

/// Snapshot transfer chunk size; each chunk rides one `ReplSnapshot` frame.
const SNAPSHOT_CHUNK_BYTES: usize = 256 * 1024;

/// A reader's socket read size: one read holds a whole pipelined window of
/// publishes (64 × ≈540 B on `match_eq`), and that window is one batch.
/// The buffer is left uninitialised until a read fills it, so memory is
/// only spent on the bytes a connection actually receives at once.
const READ_BUF_BYTES: usize = 64 * 1024;

/// A writer copies popped frames into one buffer and writes it once this
/// many bytes have gathered (or the drain ends), bounding the buffer.
const WRITE_CHUNK_BYTES: usize = 64 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Outbound frames buffered per connection before the delivery policy
    /// applies.
    pub queue_capacity: usize,
    /// What to do when a subscriber's outbound queue is full (see module
    /// docs; acks and errors always block).
    pub delivery: Backpressure,
    /// How often blocked reads wake to poll the shutdown flag. Bounds both
    /// shutdown latency and idle-connection overhead.
    pub read_timeout: Duration,
    /// Reap sessions that have stayed detached this long, freeing their
    /// subscriptions. `None` (the default) keeps sessions forever, matching
    /// the pre-GC contract; a resume of a reaped token gets
    /// `UnknownSession`.
    pub session_ttl: Option<Duration>,
    /// How long a caught-up replication stream sleeps between tail polls.
    /// Also the heartbeat period of `ReplLag` frames while idle.
    pub repl_poll: Duration,
    /// Sever a connection that has sent no frames (requests *or* pings)
    /// for this long. The session survives the severing — it detaches and
    /// ages toward [`ServerConfig::session_ttl`] like any other disconnect,
    /// so the liveness layer and the session GC share one reap path.
    /// `None` (the default) never severs on idleness.
    pub idle_deadline: Option<Duration>,
    /// Socket write timeout on the notify writer: a peer that accepts no
    /// bytes for this long is severed (its session survives). Generous by
    /// default so `Block`-policy backpressure — queue-full, not
    /// socket-full — is never misread as peer death.
    pub write_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            delivery: Backpressure::Block,
            read_timeout: Duration::from_millis(100),
            session_ttl: None,
            repl_poll: Duration::from_millis(25),
            idle_deadline: None,
            write_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// A point-in-time view of the session registry, for tests and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatus {
    /// Sessions ever created and not (yet) garbage-collected.
    pub sessions: usize,
    /// Sessions with a live connection attached.
    pub attached: usize,
    /// Subscriptions owned by network sessions.
    pub net_subscriptions: usize,
}

/// An outbound unit: a pre-encoded frame, or the graceful-close sentinel
/// that makes the writer flush and shut the socket down.
enum Out {
    Frame(Vec<u8>),
    Close,
}

/// The socket-facing half of an attached connection, owned by a session's
/// delivery state while attached.
struct Conn {
    queue: Arc<OutQueue<Out>>,
    sock: TcpStream,
    /// The owning connection's unique id; a reader only detaches the
    /// session if the attachment is still its own.
    epoch: u64,
}

impl Conn {
    /// Hard-kills the connection: wakes blocked producers and the writer,
    /// and errors out the peer's reads.
    fn kill(&self) {
        self.queue.close();
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// Per-session delivery state. Sequencing and enqueueing happen under this
/// lock (never the registry lock), so a full queue can only stall
/// publishers targeting *this* subscriber.
struct DeliveryState {
    next_seq: u64,
    conn: Option<Conn>,
    /// When the session last lost its connection (stamped at creation, so a
    /// session abandoned before its first attach still ages out). `None`
    /// while attached.
    detached_at: Option<Instant>,
    /// Set (under this lock) when the session GC removes the session from
    /// the registry. A resume that already cloned the delivery handle out
    /// of the registry checks this before attaching, so a reaped token can
    /// never come back as a ghost.
    reaped: bool,
}

struct Delivery {
    state: Mutex<DeliveryState>,
}

struct Session {
    subs: BTreeSet<u32>,
    delivery: Arc<Delivery>,
}

/// Sessions and subscription ownership. Lock discipline: the registry
/// lock and delivery-state locks are never held together — a delivery
/// lock can be held across a blocking enqueue (Block policy), so waiting
/// on one with the registry held would stall every connection. Threads
/// clone the `Arc<Delivery>` out of the registry, release it, then lock
/// delivery state. Broker-internal locks are only taken with at most the
/// registry lock held, and no broker path calls back into the registry.
#[derive(Default)]
struct Registry {
    sessions: HashMap<u64, Session>,
    /// Subscription id → owning session token. Ids absent here belong to
    /// in-process subscribers and are invisible to the network layer.
    owner: HashMap<u32, u64>,
}

/// Inserts a detached registry session mirroring the broker-table row
/// `(token, ids)` — the hydration path a restarted or promoted broker's
/// sessions come back through. Caller holds the registry lock.
fn hydrate_session(reg: &mut Registry, token: u64, ids: &[SubscriptionId]) {
    let delivery = Arc::new(Delivery {
        state: Mutex::new(DeliveryState {
            next_seq: 1,
            conn: None,
            detached_at: Some(Instant::now()),
            reaped: false,
        }),
    });
    for id in ids {
        reg.owner.insert(id.0, token);
    }
    reg.sessions.insert(
        token,
        Session {
            subs: ids.iter().map(|id| id.0).collect(),
            delivery,
        },
    );
}

/// The kill handle of a running connection, registered by conn id for the
/// lifetime of its reader thread. Lets `shutdown()` hard-close every
/// connection — attached, detached, or pre-handshake — without touching
/// any delivery lock (which a wedged publisher may hold indefinitely).
struct LiveConn {
    queue: Arc<OutQueue<Out>>,
    sock: TcpStream,
}

impl LiveConn {
    fn kill(&self) {
        self.queue.close();
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

struct State {
    broker: Arc<SharedBroker>,
    config: ServerConfig,
    registry: Mutex<Registry>,
    shutdown: AtomicBool,
    conn_counter: AtomicU64,
    conns: Mutex<Vec<JoinHandle<()>>>,
    live: Mutex<HashMap<u64, LiveConn>>,
}

/// A running broker server. Dropping it shuts it down.
pub struct Server {
    state: Arc<State>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `broker` with default [`ServerConfig`].
    pub fn start(broker: Arc<SharedBroker>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Self::start_with(broker, addr, ServerConfig::default())
    }

    /// Binds `addr` and starts serving `broker` with `config`.
    pub fn start_with(
        broker: Arc<SharedBroker>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Hydrate the registry from the broker's session table: a broker
        // recovered from its WAL (or a promoted replica) carries every
        // durable session, and clients must be able to resume them as if
        // the server had never gone away. Sessions come back detached;
        // delivery sequence numbers restart at 1 (they are connection-era
        // state, not durable state).
        let mut registry = Registry::default();
        for (token, ids) in broker.session_rows() {
            hydrate_session(&mut registry, token, &ids);
            SESSIONS_RESTORED.inc();
        }
        let state = Arc::new(State {
            broker,
            config,
            registry: Mutex::new(registry),
            shutdown: AtomicBool::new(false),
            conn_counter: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            live: Mutex::new(HashMap::new()),
        });
        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || accept_loop(listener, accept_state))?;
        let reaper = match state.config.session_ttl {
            Some(ttl) => {
                let gc_state = Arc::clone(&state);
                Some(
                    thread::Builder::new()
                        .name("net-session-gc".into())
                        .spawn(move || reaper_loop(gc_state, ttl))?,
                )
            }
            None => None,
        };
        Ok(Server {
            state,
            local_addr,
            accept: Mutex::new(Some(accept)),
            reaper: Mutex::new(reaper),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served broker.
    pub fn broker(&self) -> &Arc<SharedBroker> {
        &self.state.broker
    }

    /// Counts sessions, attachments and net-owned subscriptions.
    pub fn status(&self) -> ServerStatus {
        // Clone the delivery handles out of the registry, then release it:
        // a delivery lock may be held across a blocking enqueue, and
        // waiting on one with the registry held stalls the whole server.
        let reg = self.state.registry.lock();
        let sessions = reg.sessions.len();
        let net_subscriptions = reg.owner.len();
        let deliveries: Vec<Arc<Delivery>> = reg
            .sessions
            .values()
            .map(|s| Arc::clone(&s.delivery))
            .collect();
        drop(reg);
        let attached = deliveries
            .iter()
            .filter(|d| d.state.lock().conn.is_some())
            .count();
        ServerStatus {
            sessions,
            attached,
            net_subscriptions,
        }
    }

    /// Reaps every session that has stayed detached at least
    /// [`ServerConfig::session_ttl`], returning how many were removed.
    /// A no-op (returns 0) when no TTL is configured. The background
    /// reaper calls this periodically; tests and operators can call it
    /// directly for a deterministic sweep.
    pub fn reap_detached_sessions(&self) -> usize {
        match self.state.config.session_ttl {
            Some(ttl) => reap_detached(&self.state, ttl),
            None => 0,
        }
    }

    /// The live subscription ids of session `token` (sorted), or `None`
    /// for an unknown token.
    pub fn session_subscriptions(&self, token: u64) -> Option<Vec<u32>> {
        let reg = self.state.registry.lock();
        reg.sessions
            .get(&token)
            .map(|s| s.subs.iter().copied().collect())
    }

    /// Stops accepting, kills every connection, and joins all server
    /// threads. Idempotent; sessions and the broker are left intact.
    pub fn shutdown(&self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Hard-close every live connection so blocked reads, writes and
        // queue pushes all wake promptly. The live table — never the
        // delivery locks — is the kill path: a publisher wedged in a
        // blocking enqueue HOLDS its target's delivery lock and only the
        // queue close below can wake it, so taking delivery locks here
        // would deadlock. Connections that register concurrently with
        // this sweep see the shutdown flag on their next read timeout.
        {
            let live = self.state.live.lock();
            for conn in live.values() {
                conn.kill();
            }
        }
        // Wake the accept loop; it checks the flag after every accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.lock().take() {
            let _ = h.join();
        }
        // The session reaper polls the flag between short sleeps.
        if let Some(h) = self.reaper.lock().take() {
            let _ = h.join();
        }
        // Reader threads poll the flag on their read timeout; pre-session
        // connections exit that way. Join them all.
        let handles: Vec<_> = self.state.conns.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<State>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (e.g. EMFILE) must not
                // busy-spin the accept thread at 100% CPU.
                thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_id = state.conn_counter.fetch_add(1, Ordering::Relaxed);
        let conn_state = Arc::clone(&state);
        let handle = thread::Builder::new()
            .name(format!("net-conn-{conn_id}"))
            .spawn(move || run_connection(conn_state, stream, conn_id));
        if let Ok(h) = handle {
            // Reap finished connections as new ones arrive, so a
            // long-running server's handle vector stays bounded by the
            // number of live connections. Dropping a finished handle
            // just releases its bookkeeping.
            let mut conns = state.conns.lock();
            conns.retain(|h| !h.is_finished());
            conns.push(h);
        }
    }
}

/// Periodically sweeps detached sessions past their TTL. Wakes often
/// enough that both GC latency and shutdown latency stay well under a
/// second regardless of the configured TTL.
fn reaper_loop(state: Arc<State>, ttl: Duration) {
    let interval = (ttl / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    loop {
        thread::sleep(interval);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        reap_detached(&state, ttl);
    }
}

/// Removes every session detached at least `ttl` ago, unsubscribing the
/// broker subscriptions it owned. Returns the number of sessions reaped.
///
/// Lock discipline note: this is the one place a delivery lock is taken
/// with the registry held — via `try_lock`, which never blocks. A delivery
/// lock held long (a publisher mid-blocking-enqueue) implies an attached,
/// unreapable session, so skipping on contention loses nothing; the next
/// sweep retries. Holding the registry across the check-and-remove is what
/// makes reaping atomic against concurrent resumes.
fn reap_detached(state: &State, ttl: Duration) -> usize {
    // A follower's sessions are replicated state: the leader decides their
    // fate, and a local reap would fork from the stream. Skip entirely.
    if state.broker.is_follower() {
        return 0;
    }
    let mut reg = state.registry.lock();
    let tokens: Vec<u64> = reg.sessions.keys().copied().collect();
    let mut reaped = 0;
    for token in tokens {
        let Some(session) = reg.sessions.get(&token) else {
            continue;
        };
        let delivery = Arc::clone(&session.delivery);
        let Some(mut st) = delivery.state.try_lock() else {
            continue;
        };
        let expired = st.conn.is_none() && st.detached_at.is_some_and(|t| t.elapsed() >= ttl);
        if !expired {
            continue;
        }
        st.reaped = true;
        drop(st);
        // The broker owns the durable reap: one `SessionReap` record frees
        // every bound subscription, so recovery and replicas converge to
        // the same post-reap state. `UnknownSession` means the broker-side
        // session is already gone (e.g. the registry entry outlived a
        // failover) — finish the registry removal anyway.
        match state.broker.try_session_reap(token) {
            Ok(_) | Err(BrokerError::UnknownSession(_)) => {}
            Err(_) => {
                // Could not log the reap (degraded broker): leave the
                // session for a later sweep, and clear the flag so a
                // resume in the meantime is not turned away for nothing.
                delivery.state.lock().reaped = false;
                continue;
            }
        }
        let session = reg.sessions.remove(&token).expect("present: checked above");
        for id in session.subs {
            reg.owner.remove(&id);
        }
        SESSIONS_REAPED.inc();
        reaped += 1;
    }
    reaped
}

/// How a reader thread ended, deciding the connection's teardown.
#[derive(PartialEq)]
enum Exit {
    /// Peer closed cleanly or a protocol error was reported: flush queued
    /// frames (including the final error, if any), then close.
    Graceful,
    /// Fault injection, shutdown, or I/O failure: discard and close.
    Severed,
}

fn run_connection(state: Arc<State>, stream: TcpStream, conn_id: u64) {
    CONNECTIONS.inc();
    let lane = conn_id as usize;
    match faults::hit(points::NET_ACCEPT, lane) {
        Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
        Some(_) => return, // Injected accept failure: drop before reading.
        None => {}
    }
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(state.config.read_timeout))
        .is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // A peer that stops draining its socket must not pin the writer in
    // write_all forever: the deadline errors the write out, the writer
    // closes the queue, and the session detaches (it can resume later).
    if write_half
        .set_write_timeout(state.config.write_deadline)
        .is_err()
    {
        return;
    }
    let Ok(kill_half) = stream.try_clone() else {
        return;
    };
    let queue = Arc::new(OutQueue::new(state.config.queue_capacity));
    let writer_queue = Arc::clone(&queue);
    let writer = thread::Builder::new()
        .name(format!("net-write-{conn_id}"))
        .spawn(move || writer_loop(writer_queue, write_half, conn_id));
    let Ok(writer) = writer else {
        return;
    };
    // Register the kill handle so shutdown() can hard-close this
    // connection whatever state it is in (pre-handshake, detached, or
    // with its writer wedged on a non-reading peer).
    state.live.lock().insert(
        conn_id,
        LiveConn {
            queue: Arc::clone(&queue),
            sock: kill_half,
        },
    );

    let mut ctx = ConnCtx {
        state: &state,
        stream,
        queue,
        conn_id,
        session: None,
        publishes: Vec::new(),
        matched: Vec::new(),
    };
    let exit = ctx.serve();

    // Detach the session — but only if this connection is still the one
    // attached (a resume may have kicked us and attached a newer epoch).
    if let Some((_, delivery)) = &ctx.session {
        let mut st = delivery.state.lock();
        if st.conn.as_ref().is_some_and(|c| c.epoch == conn_id) {
            st.conn = None;
            st.detached_at = Some(Instant::now());
        }
    }
    match exit {
        Exit::Graceful => {
            // Let the writer drain every queued ack/error, then close —
            // without blocking: if the queue is full the writer is wedged
            // in write_all to a peer that stopped reading, and a reader
            // blocked here (already detached) would be unreachable by
            // shutdown()'s kill loop, hanging Drop forever. Sever instead;
            // the undeliverable backlog had nowhere to go anyway.
            if ctx.queue.try_push(Out::Close).is_err() {
                ctx.queue.close();
                let _ = ctx.stream.shutdown(Shutdown::Both);
            }
        }
        Exit::Severed => {
            ctx.queue.close();
            let _ = ctx.stream.shutdown(Shutdown::Both);
        }
    }
    let _ = writer.join();
    state.live.lock().remove(&conn_id);
}

/// Sends everything the queue holds per drain: the popped frames are
/// copied into one reused buffer and written together, up to the first
/// `Close` (which ends the connection after the frames ahead of it) or
/// injected write failure (which ends it before that frame).
fn writer_loop(queue: Arc<OutQueue<Out>>, mut sock: TcpStream, conn_id: u64) {
    let mut popped = Vec::new();
    // Sized once: growing it by doubling would leave a trail of freed
    // blocks behind in this thread's heap.
    let mut buf = Vec::with_capacity(WRITE_CHUNK_BYTES);
    let mut frames = 0;
    'drain: while queue.pop_all(&mut popped) {
        let mut stop = false;
        for msg in popped.drain(..) {
            let Out::Frame(bytes) = msg else {
                stop = true;
                break;
            };
            match faults::hit(points::NET_NOTIFY_WRITE, conn_id as usize) {
                Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
                Some(_) => {
                    // Injected write failure: sever mid-delivery.
                    stop = true;
                    break;
                }
                None => {}
            }
            buf.extend_from_slice(&bytes);
            frames += 1;
            if buf.len() >= WRITE_CHUNK_BYTES && !write_frames(&mut sock, &mut buf, &mut frames) {
                break 'drain;
            }
        }
        if !buf.is_empty() && !write_frames(&mut sock, &mut buf, &mut frames) {
            break;
        }
        buf.shrink_to(WRITE_CHUNK_BYTES);
        if stop {
            break;
        }
    }
    // Whatever ended the loop, make the death observable: wake producers
    // blocked on the queue and error out the peer (and our reader).
    queue.close();
    let _ = sock.shutdown(Shutdown::Both);
}

/// Writes the gathered frames in one call and empties `buf`. `false`
/// means the socket failed.
fn write_frames(sock: &mut TcpStream, buf: &mut Vec<u8>, frames: &mut u64) -> bool {
    if sock.write_all(buf).is_err() {
        return false;
    }
    WRITES.inc();
    FRAMES_OUT.add(*frames);
    *frames = 0;
    buf.clear();
    true
}

struct ConnCtx<'a> {
    state: &'a State,
    stream: TcpStream,
    queue: Arc<OutQueue<Out>>,
    conn_id: u64,
    /// Set once the handshake completes: session token + delivery handle.
    session: Option<(u64, Arc<Delivery>)>,
    /// The batch's `Publish` frames not yet answered, in request order:
    /// each one's request id and the span of its event body in the
    /// reader's buffer (valid until the next read extends it).
    publishes: Vec<(u32, Range<usize>)>,
    /// The batch's match sets, one per valid publish (reused).
    matched: Vec<Vec<SubscriptionId>>,
}

impl ConnCtx<'_> {
    /// Enqueues a response frame (always blocking: acks and errors are the
    /// request/response backbone and are never shed). Returns `false` when
    /// the connection is already dead.
    fn send(&self, frame: &Frame) -> bool {
        self.queue
            .push_blocking(Out::Frame(frame.to_bytes()))
            .is_ok()
    }

    fn send_error(&self, req: u32, code: ErrorCode, msg: impl Into<String>) -> bool {
        self.send(&Frame::Error {
            req,
            code,
            msg: msg.into(),
        })
    }

    /// Reads and processes frames until the connection ends.
    fn serve(&mut self) -> Exit {
        let mut reader = FrameReader::new();
        let Ok(stream) = self.stream.try_clone() else {
            return Exit::Severed;
        };
        let mut input = BufReader::with_capacity(READ_BUF_BYTES, stream);
        let mut last_activity = Instant::now();
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                return Exit::Severed;
            }
            let bytes = match input.fill_buf() {
                Ok([]) => return Exit::Graceful,
                Ok(bytes) => bytes,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // The liveness check rides the read-timeout wakeups: a
                    // peer that has gone silent past the deadline is severed
                    // (not closed gracefully), detaching its session to age
                    // toward the TTL reaper like any other disconnect.
                    if self
                        .state
                        .config
                        .idle_deadline
                        .is_some_and(|d| last_activity.elapsed() >= d)
                    {
                        return Exit::Severed;
                    }
                    continue;
                }
                Err(_) => return Exit::Severed,
            };
            last_activity = Instant::now();
            READS.inc();
            reader.extend(bytes);
            let n = bytes.len();
            input.consume(n);
            if let Some(exit) = self.handle_batch(&mut reader) {
                return exit;
            }
        }
    }

    /// Handles every complete frame `reader` holds as one batch, and never
    /// waits for more bytes. A handshaken connection's publishes join
    /// [`ConnCtx::publishes`] undecoded; any other frame — and the end of
    /// the buffered bytes — answers them first, so every reply keeps its
    /// request's position.
    fn handle_batch(&mut self, reader: &mut FrameReader) -> Option<Exit> {
        loop {
            let span = match reader.next_payload() {
                Ok(Some(span)) => span,
                Ok(None) => return self.flush_publishes(reader),
                Err(e) => return self.bad_frame(reader, e),
            };
            FRAMES_IN.inc();
            match faults::hit(points::NET_FRAME_READ, self.conn_id as usize) {
                Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
                Some(_) => {
                    // Kill mid-stream, after the frames before this one.
                    let _ = self.flush_publishes(reader);
                    return Some(Exit::Severed);
                }
                None => {}
            }
            let payload = reader.payload(span.clone());
            if self.session.is_some() {
                match PublishRef::parse(payload) {
                    Ok(Some(publish)) => {
                        let body = span.end - publish.body.len()..span.end;
                        self.publishes.push((publish.req, body));
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => return self.bad_frame(reader, e.into()),
                }
            }
            let frame = match Frame::decode(payload) {
                Ok(frame) => frame,
                Err(e) => return self.bad_frame(reader, e.into()),
            };
            if let Some(exit) = self.flush_publishes(reader) {
                return Some(exit);
            }
            if let Some(exit) = self.handle(frame) {
                return Some(exit);
            }
        }
    }

    /// Framing or decoding failed: answers the frames before the bad one,
    /// reports it once and closes. The graceful exit flushes this error to
    /// the peer.
    fn bad_frame(&mut self, reader: &FrameReader, e: FrameError) -> Option<Exit> {
        if let Some(exit) = self.flush_publishes(reader) {
            return Some(exit);
        }
        BAD_FRAMES.inc();
        self.send_error(0, ErrorCode::BadFrame, e.to_string());
        Some(Exit::Graceful)
    }

    /// Processes one frame (a handshaken connection's `Publish` never gets
    /// here: [`ConnCtx::handle_batch`] gathers it). `Some(exit)` ends the
    /// connection.
    fn handle(&mut self, frame: Frame) -> Option<Exit> {
        // Pings are answered at any point — even before the handshake —
        // so a client can probe liveness without committing to a session.
        if let Frame::Ping { nonce } = frame {
            PINGS.inc();
            if !self.send(&Frame::Pong { nonce }) {
                return Some(Exit::Severed);
            }
            return None;
        }
        // Every frame before a successful handshake must be Hello — or
        // ReplHello, which never creates a session: it commits the whole
        // connection to a one-way WAL stream.
        if self.session.is_none() {
            return match frame {
                Frame::Hello { proto, token } => self.handle_hello(proto, token),
                Frame::ReplHello { proto, from_lsn } => {
                    Some(self.serve_replication(proto, from_lsn))
                }
                _ => {
                    self.send_error(0, ErrorCode::BadHandshake, "first frame must be Hello");
                    Some(Exit::Graceful)
                }
            };
        }
        match frame {
            Frame::Hello { .. } => {
                // One session per connection; re-handshaking is an error
                // but not a connection killer.
                self.send_error(0, ErrorCode::BadRequest, "already handshaken");
                None
            }
            Frame::Subscribe { req, preds } => self.handle_subscribe(req, &preds),
            Frame::Unsubscribe { req, id } => self.handle_unsubscribe(req, id),
            Frame::Publish { .. } => {
                unreachable!("handle_batch gathers a handshaken connection's publishes")
            }
            Frame::Notify { .. } | Frame::Ack(_) | Frame::Error { .. } | Frame::Pong { .. } => {
                self.send_error(0, ErrorCode::BadRequest, "server-only frame");
                None
            }
            // Already answered by the pre-handshake intercept above.
            Frame::Ping { .. } => None,
            Frame::ReplHello { .. }
            | Frame::ReplSegment { .. }
            | Frame::ReplRecords { .. }
            | Frame::ReplSnapshot { .. }
            | Frame::ReplLag { .. } => {
                self.send_error(
                    0,
                    ErrorCode::BadRequest,
                    "replication frame on a session connection",
                );
                None
            }
        }
    }

    /// Serves a one-way WAL stream to a replication follower, starting at
    /// `from_lsn`. Runs until the peer disconnects, the server shuts down,
    /// or the log becomes unreadable. Never touches the session registry:
    /// replication connections are not sessions.
    fn serve_replication(&mut self, proto: u32, from_lsn: u64) -> Exit {
        match faults::hit(points::REPL_ACCEPT, self.conn_id as usize) {
            Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
            Some(_) => return Exit::Severed, // Injected accept failure.
            None => {}
        }
        if proto != crate::frame::PROTOCOL_VERSION {
            self.send_error(
                0,
                ErrorCode::BadHandshake,
                format!(
                    "protocol {proto} unsupported (want {})",
                    crate::frame::PROTOCOL_VERSION
                ),
            );
            return Exit::Graceful;
        }
        let Some(status) = self.state.broker.durability() else {
            self.send_error(
                0,
                ErrorCode::Unavailable,
                "replication requires a durable broker",
            );
            return Exit::Graceful;
        };
        let dir = status.dir;
        REPL_STREAMS.inc();
        let mut pos = from_lsn;
        // First LSN of the segment the last shipped batch started in;
        // `ReplSegment` is sent whenever it changes.
        let mut segment: Option<u64> = None;
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                return Exit::Severed;
            }
            match replication::read_tail(&dir, pos, TAIL_BATCH_BYTES) {
                Ok(TailChunk::Records {
                    segment_first,
                    first_lsn,
                    payloads,
                }) => {
                    if segment != Some(segment_first) {
                        segment = Some(segment_first);
                        if !self.send(&Frame::ReplSegment {
                            first_lsn: segment_first,
                        }) {
                            return Exit::Severed;
                        }
                    }
                    pos = first_lsn + payloads.len() as u64;
                    if !self.send(&Frame::ReplRecords {
                        first_lsn,
                        payloads,
                    }) {
                        return Exit::Severed;
                    }
                }
                Ok(TailChunk::CaughtUp { next_lsn }) | Ok(TailChunk::Incomplete { next_lsn }) => {
                    // At the live end (or a record is mid-append): ship the
                    // exact append position as a lag heartbeat, then poll.
                    // A dead peer surfaces here as a failed enqueue once
                    // the writer hits the broken socket.
                    if !self.send(&Frame::ReplLag {
                        leader_next_lsn: next_lsn,
                    }) {
                        return Exit::Severed;
                    }
                    thread::sleep(self.state.config.repl_poll);
                }
                Ok(TailChunk::SnapshotRequired { .. }) => {
                    let (lsn, bytes) = match replication::snapshot_for_catchup(&dir) {
                        Ok(Some(snap)) => snap,
                        Ok(None) => {
                            self.send_error(
                                0,
                                ErrorCode::Internal,
                                "history compacted but no usable snapshot",
                            );
                            return Exit::Graceful;
                        }
                        Err(e) => {
                            self.send_error(0, ErrorCode::Unavailable, e.to_string());
                            return Exit::Graceful;
                        }
                    };
                    let total_len = bytes.len() as u64;
                    let mut offset = 0usize;
                    // Ship at least one chunk even for an empty snapshot,
                    // so the follower observes offset + len == total_len.
                    loop {
                        let end = (offset + SNAPSHOT_CHUNK_BYTES).min(bytes.len());
                        let frame = Frame::ReplSnapshot {
                            lsn,
                            total_len,
                            offset: offset as u64,
                            chunk: bytes[offset..end].to_vec(),
                        };
                        if !self.send(&frame) {
                            return Exit::Severed;
                        }
                        offset = end;
                        if offset >= bytes.len() {
                            break;
                        }
                    }
                    segment = None;
                    pos = lsn;
                }
                Err(e) => {
                    self.send_error(0, ErrorCode::Unavailable, format!("wal tail failed: {e}"));
                    return Exit::Graceful;
                }
            }
        }
    }

    fn handle_hello(&mut self, proto: u32, token: u64) -> Option<Exit> {
        match faults::hit(points::NET_HANDSHAKE, self.conn_id as usize) {
            Some(FaultAction::Delay(ms)) => thread::sleep(Duration::from_millis(ms)),
            Some(_) => return Some(Exit::Severed), // Kill mid-handshake.
            None => {}
        }
        if proto != crate::frame::PROTOCOL_VERSION {
            self.send_error(
                0,
                ErrorCode::BadHandshake,
                format!(
                    "protocol {proto} unsupported (want {})",
                    crate::frame::PROTOCOL_VERSION
                ),
            );
            return Some(Exit::Graceful);
        }
        let mut reg = self.state.registry.lock();
        let (token, delivery, resumed) = if token == crate::frame::NEW_SESSION {
            // The broker issues the token (durably, on durable brokers), so
            // a restarted or promoted broker never reissues it. A follower
            // broker refuses — new sessions belong on the leader.
            let token = match self.state.broker.try_session_create() {
                Ok(token) => token,
                Err(e) => {
                    drop(reg);
                    self.send_error(0, broker_error_code(&e), e.to_string());
                    return Some(Exit::Graceful);
                }
            };
            let delivery = Arc::new(Delivery {
                state: Mutex::new(DeliveryState {
                    next_seq: 1,
                    conn: None,
                    detached_at: Some(Instant::now()),
                    reaped: false,
                }),
            });
            reg.sessions.insert(
                token,
                Session {
                    subs: BTreeSet::new(),
                    delivery: Arc::clone(&delivery),
                },
            );
            (token, delivery, Vec::new())
        } else {
            if !reg.sessions.contains_key(&token) {
                // Not in the registry — but possibly in the broker's table:
                // after a failover, replicated sessions can land *after*
                // the replica's server started. Hydrate lazily.
                match self.state.broker.session_subscriptions(token) {
                    Some(ids) => {
                        hydrate_session(&mut reg, token, &ids);
                        SESSIONS_RESTORED.inc();
                    }
                    None => {
                        drop(reg);
                        self.send_error(
                            0,
                            ErrorCode::UnknownSession,
                            format!("no session {token}"),
                        );
                        return Some(Exit::Graceful);
                    }
                }
            }
            let session = reg.sessions.get(&token).expect("present or just hydrated");
            SESSIONS_RESUMED.inc();
            let resumed: Vec<u32> = session.subs.iter().copied().collect();
            (token, Arc::clone(&session.delivery), resumed)
        };
        // Release the registry BEFORE touching delivery state: a stalled
        // publisher may hold the delivery lock across a blocking enqueue
        // (Block policy), and waiting on it with the registry held would
        // wedge every other connection's hello/subscribe/publish.
        drop(reg);
        // Attach this connection, kicking any previous one: its socket is
        // shut down and its queue closed, so its reader and writer exit
        // and it can never ack or deliver again (no ghost peers).
        // Concurrent resumes of the same token race on the delivery lock
        // alone; the epoch guard keeps detach correct whichever wins.
        let Ok(sock) = self.stream.try_clone() else {
            return Some(Exit::Severed);
        };
        {
            let mut st = delivery.state.lock();
            // The GC may have reaped this session between our registry
            // lookup and this attach; the flag (set under this lock) makes
            // the removal authoritative.
            if st.reaped {
                drop(st);
                self.send_error(
                    0,
                    ErrorCode::UnknownSession,
                    format!("session {token} expired"),
                );
                return Some(Exit::Graceful);
            }
            if let Some(old) = st.conn.take() {
                old.kill();
            }
            st.conn = Some(Conn {
                queue: Arc::clone(&self.queue),
                sock,
                epoch: self.conn_id,
            });
            st.detached_at = None;
        }
        self.session = Some((token, delivery));
        if !self.send(&Frame::Ack(Ack::Hello { token, resumed })) {
            return Some(Exit::Severed);
        }
        None
    }

    fn handle_subscribe(&mut self, req: u32, preds: &[WirePredicate]) -> Option<Exit> {
        let (token, _) = self.session.as_ref().expect("handshaken");
        let token = *token;
        // A follower refuses before interning anything: a name interned
        // here would fork its vocabulary from the leader's.
        if self.state.broker.is_follower() {
            let e = BrokerError::Follower;
            self.send_error(req, broker_error_code(&e), e.to_string());
            return None;
        }
        let sub = match wire_subscription(&self.state.broker, preds) {
            Ok(sub) => sub,
            Err(e) => {
                self.send_error(req, ErrorCode::BadRequest, e.to_string());
                return None;
            }
        };
        // Subscribe and record ownership under one registry hold (the
        // documented registry < broker lock order, same as unsubscribe):
        // deliver() groups matches under the registry lock, so once the
        // broker can match the new id, its owner is always resolvable —
        // no window where a matching publish silently skips delivery
        // without consuming a sequence number. The bound call records the
        // session ↔ subscription edge in the broker's durable table, so a
        // restarted broker resumes this session with this id attached.
        let mut reg = self.state.registry.lock();
        let id = match self
            .state
            .broker
            .try_subscribe_bound(token, sub, Validity::forever())
        {
            Ok(id) => id,
            Err(e) => {
                drop(reg);
                self.send_error(req, broker_error_code(&e), e.to_string());
                return None;
            }
        };
        reg.owner.insert(id.0, token);
        if let Some(session) = reg.sessions.get_mut(&token) {
            session.subs.insert(id.0);
        }
        drop(reg);
        if !self.send(&Frame::Ack(Ack::Subscribe { req, id: id.0 })) {
            return Some(Exit::Severed);
        }
        None
    }

    fn handle_unsubscribe(&mut self, req: u32, id: u32) -> Option<Exit> {
        let (token, _) = self.session.as_ref().expect("handshaken");
        let token = *token;
        let mut reg = self.state.registry.lock();
        let existed = match reg.owner.get(&id) {
            // Unknown to the network layer: either never existed or
            // already removed. Idempotent no-op — and never forwarded to
            // the broker, which may own in-process subscriptions under
            // this id.
            None => false,
            Some(owner) if *owner != token => {
                drop(reg);
                self.send_error(
                    req,
                    ErrorCode::BadRequest,
                    format!("s{id} not owned by session"),
                );
                return None;
            }
            Some(_) => match self
                .state
                .broker
                .try_unsubscribe_bound(token, SubscriptionId(id))
            {
                Ok(existed) => {
                    reg.owner.remove(&id);
                    if let Some(session) = reg.sessions.get_mut(&token) {
                        session.subs.remove(&id);
                    }
                    existed
                }
                Err(e) => {
                    drop(reg);
                    self.send_error(req, broker_error_code(&e), e.to_string());
                    return None;
                }
            },
        };
        drop(reg);
        if !self.send(&Frame::Ack(Ack::Unsubscribe { req, existed })) {
            return Some(Exit::Severed);
        }
        None
    }

    /// Answers the gathered publishes as one batch: every body is walked
    /// and resolved under one vocabulary hold, the valid events are matched
    /// by one `publish_batch_into` call and fanned out together, and the
    /// acks — with an `Error` in place of each event that failed
    /// validation — go to this connection's queue in one push, in request
    /// order. A body that does not decode ends the batch there: the
    /// publishes before it are answered, then it is reported as a bad
    /// frame and the connection closes, as if the reader had stopped at it.
    fn flush_publishes(&mut self, reader: &FrameReader) -> Option<Exit> {
        if self.publishes.is_empty() {
            return None;
        }
        PUBLISH_BATCHES.inc();
        let broker = &self.state.broker;
        let bodies: Vec<&[u8]> = self
            .publishes
            .iter()
            .map(|(_, span)| reader.payload(span.clone()))
            .collect();
        let (resolved, bad) = resolve_batch(broker, &bodies);
        let mut events = Vec::with_capacity(resolved.len());
        let mut sent = Vec::with_capacity(resolved.len());
        // Per publish: its index in `events`, or why it was refused.
        let outcomes: Vec<Result<usize, TypeError>> = resolved
            .into_iter()
            .zip(&bodies)
            .map(|(pairs, body)| {
                events.push(Event::from_pairs(pairs?)?);
                sent.push(*body);
                Ok(events.len() - 1)
            })
            .collect();
        let matched = &mut self.matched;
        broker.publish_batch_into(&events, matched);
        deliver(self.state, matched, &sent);
        let mut replies: Vec<Out> = self
            .publishes
            .iter()
            .zip(outcomes)
            .map(|((req, _), outcome)| Out::Frame(publish_reply(*req, outcome, matched).to_bytes()))
            .collect();
        self.publishes.clear();
        if self.queue.push_all_blocking(&mut replies).is_err() {
            return Some(Exit::Severed);
        }
        // The batch is empty now, so this only reports the bad body.
        bad.and_then(|e| self.bad_frame(reader, e.into()))
    }
}

/// The answer to publish `req`: its ack with the match count, or the
/// validation error that refused it.
fn publish_reply(
    req: u32,
    outcome: Result<usize, TypeError>,
    matched: &[Vec<SubscriptionId>],
) -> Frame {
    match outcome {
        Ok(k) => Frame::Ack(Ack::Publish {
            req,
            matched: matched[k].len() as u32,
        }),
        Err(e) => Frame::Error {
            req,
            code: ErrorCode::BadRequest,
            msg: e.to_string(),
        },
    }
}

/// One publish's interned pairs, or why its event is refused.
type Resolved = Result<Vec<(AttrId, Value)>, TypeError>;

/// Walks and resolves a batch's event bodies under one vocabulary hold, in
/// order, stopping at the first body that does not decode (returned
/// beside the ones before it). A leader interns the names it has not seen;
/// a follower must not intern — that would fork its vocabulary from the
/// leader's — so it resolves by lookup alone ([`drop_unknown_attrs`]).
fn resolve_batch(broker: &SharedBroker, bodies: &[&[u8]]) -> (Vec<Resolved>, Option<CodecError>) {
    let mut resolved = Vec::with_capacity(bodies.len());
    let mut fresh = Vec::new();
    let bad = if broker.is_follower() {
        broker.read_vocab(|vocab| {
            for body in bodies {
                let pairs = match resolve_event(vocab, body, &mut fresh) {
                    Ok(pairs) => pairs,
                    Err(e) => return Some(e),
                };
                resolved.push(drop_unknown_attrs(vocab, pairs, &fresh));
                fresh.clear();
            }
            None
        })
    } else {
        broker.with_vocab(|vocab| {
            for body in bodies {
                let mut pairs = match resolve_event(vocab, body, &mut fresh) {
                    Ok(pairs) => pairs,
                    Err(e) => return Some(e),
                };
                intern_fresh(vocab, &mut pairs, &mut fresh);
                resolved.push(Ok(pairs));
            }
            None
        })
    };
    (resolved, bad)
}

/// Stands in for an attribute the vocabulary does not hold, until the name
/// is interned (leader) or its pair dropped (follower).
const UNKNOWN_ATTR: AttrId = AttrId(u32::MAX);

/// A name the vocabulary does not hold, met while resolving an event: the
/// pair it sits in, and whether it is that pair's string value rather than
/// its attribute.
struct Fresh<'a> {
    pair: usize,
    name: &'a str,
    value: bool,
}

/// Walks an encoded event and resolves its pairs against `vocab` without
/// changing it. A name `vocab` does not hold resolves to a stand-in —
/// [`UNKNOWN_ATTR`], or the symbol the next string intern would get, which
/// compares like one — and is listed in `fresh`, in encoding order.
fn resolve_event<'a>(
    vocab: &Vocabulary,
    body: &'a [u8],
    fresh: &mut Vec<Fresh<'a>>,
) -> Result<Vec<(AttrId, Value)>, CodecError> {
    let mut event = WireEventRef::new(body)?;
    let next_symbol = Value::Str(Symbol(vocab.strings.len() as u32));
    let mut pairs = Vec::with_capacity(event.pairs_left());
    while let Some((name, value)) = event.next_pair()? {
        let pair = pairs.len();
        let attr = vocab.attrs.get(name).unwrap_or_else(|| {
            fresh.push(Fresh {
                pair,
                name,
                value: false,
            });
            UNKNOWN_ATTR
        });
        let value = match value {
            WireValueRef::Int(i) => Value::Int(i),
            WireValueRef::Str(s) => vocab.strings.get(s).map_or_else(
                || {
                    fresh.push(Fresh {
                        pair,
                        name: s,
                        value: true,
                    });
                    next_symbol
                },
                Value::Str,
            ),
        };
        pairs.push((attr, value));
    }
    Ok(pairs)
}

/// Interns the names [`resolve_event`] did not find, in encoding order —
/// the order a name-by-name intern would log them in — and puts their ids
/// into `pairs`.
fn intern_fresh(vocab: &mut Vocabulary, pairs: &mut [(AttrId, Value)], fresh: &mut Vec<Fresh>) {
    for f in fresh.drain(..) {
        if f.value {
            pairs[f.pair].1 = vocab.string(f.name);
        } else {
            pairs[f.pair].0 = vocab.attr(f.name);
        }
    }
}

/// A follower's resolution of the names [`resolve_event`] did not find.
/// An unknown attribute cannot appear in any replicated subscription, so
/// its pair can match nothing and is dropped — after the event is refused,
/// as on the leader, if it names that attribute twice. An unknown string
/// keeps its stand-in symbol.
fn drop_unknown_attrs(
    vocab: &Vocabulary,
    mut pairs: Vec<(AttrId, Value)>,
    fresh: &[Fresh],
) -> Resolved {
    let mut unknown: Vec<&str> = fresh.iter().filter(|f| !f.value).map(|f| f.name).collect();
    if unknown.is_empty() {
        return Ok(pairs);
    }
    unknown.sort_unstable();
    if unknown.windows(2).any(|w| w[0] == w[1]) {
        // The id the leader would give the name is not known here; report
        // the one the next intern would take.
        let next = AttrId(vocab.attrs.universe() as u32);
        return Err(TypeError::DuplicateEventAttribute(next));
    }
    pairs.retain(|(attr, _)| *attr != UNKNOWN_ATTR);
    Ok(pairs)
}

/// One session's share of a batch: its notifies in event order, each an
/// event (an index into the batch) and the span of `ids` holding the ids
/// it matched there, sorted.
#[derive(Default)]
struct Notifies {
    events: Vec<(usize, Range<usize>)>,
    ids: Vec<u32>,
}

impl Notifies {
    /// Adds matched id `id` of event `k`; events arrive in order.
    fn push(&mut self, k: usize, id: u32) {
        self.ids.push(id);
        let end = self.ids.len();
        match self.events.last_mut() {
            Some((last, span)) if *last == k => span.end = end,
            _ => self.events.push((k, end - 1..end)),
        }
    }
}

/// Fans one batch's match sets (`matched[k]` for the event whose encoded
/// body is `bodies[k]`) out to the sessions owning the matched
/// subscriptions. One registry hold groups the whole batch by session;
/// then each session gets one delivery lock hold and one queue push
/// carrying its notifies in event order, with the delivery policy applied
/// to each notify. Each notify forwards its event's body verbatim.
fn deliver(state: &State, matched: &[Vec<SubscriptionId>], bodies: &[&[u8]]) {
    let mut targets: Vec<(Arc<Delivery>, Notifies)> = Vec::new();
    {
        // Group under the registry lock, then release it: enqueueing may
        // block (Block policy) and must only ever hold the target
        // session's delivery lock.
        let reg = state.registry.lock();
        let mut slot: FxHashMap<u64, usize> = FxHashMap::default();
        for (k, ids) in matched.iter().enumerate() {
            for id in ids {
                let Some(&token) = reg.owner.get(&id.0) else {
                    continue;
                };
                let t = match slot.get(&token) {
                    Some(&t) => t,
                    None => {
                        let Some(session) = reg.sessions.get(&token) else {
                            continue;
                        };
                        targets.push((Arc::clone(&session.delivery), Notifies::default()));
                        slot.insert(token, targets.len() - 1);
                        targets.len() - 1
                    }
                };
                targets[t].1.push(k, id.0);
            }
        }
    }
    for (delivery, notifies) in targets {
        let mut st = delivery.state.lock();
        // Every notify consumes its seq, whatever befalls it: a gap marks
        // each one the subscriber will not see.
        let n = notifies.events.len() as u64;
        let first_seq = st.next_seq;
        st.next_seq += n;
        let Some(conn) = st.conn.as_ref() else {
            NOTIFIES_DROPPED_DETACHED.add(n);
            continue;
        };
        let mut frames: Vec<Out> = notifies
            .events
            .iter()
            .zip(first_seq..)
            .map(|((k, span), seq)| {
                let mut bytes = Vec::new();
                frame::write_notify(&mut bytes, seq, &notifies.ids[span.clone()], bodies[*k]);
                Out::Frame(bytes)
            })
            .collect();
        let result = match state.config.delivery {
            Backpressure::Block => conn.queue.push_all_blocking(&mut frames),
            Backpressure::Shed | Backpressure::ErrorFast => {
                conn.queue.try_push_all(&mut frames).map(|_| ())
            }
        };
        // What is left in `frames` was not enqueued.
        let left = frames.len() as u64;
        if left == 0 {
            continue;
        }
        match (result, state.config.delivery) {
            (Ok(()), Backpressure::Shed) => NOTIFIES_SHED.add(left),
            (Ok(()), Backpressure::ErrorFast) => {
                // Too slow: disconnect the subscriber at the first notify
                // that does not fit; the rest take the detached path. Its
                // session survives and can resume later.
                ERRORFAST_DISCONNECTS.inc();
                if let Some(conn) = st.conn.take() {
                    conn.kill();
                }
                st.detached_at = Some(Instant::now());
                NOTIFIES_DROPPED_DETACHED.add(left - 1);
            }
            (Ok(()), Backpressure::Block) => unreachable!("a blocking push enqueues everything"),
            (Err(_), _) => {
                // The connection died under us; detach so the rest, and
                // later notifies, take the cheap detached path.
                st.conn = None;
                st.detached_at = Some(Instant::now());
                NOTIFIES_DROPPED_DETACHED.add(left - 1);
            }
        }
    }
}

fn broker_error_code(e: &BrokerError) -> ErrorCode {
    match e {
        BrokerError::Degraded(_) | BrokerError::Follower => ErrorCode::Unavailable,
        BrokerError::UnknownSession(_) => ErrorCode::UnknownSession,
        _ => ErrorCode::Internal,
    }
}

/// Interns a wire subscription into the broker's vocabulary and validates
/// it. On a durable broker the interning itself is WAL-logged, so a
/// recovered broker resolves the same names to the same ids.
fn wire_subscription(
    broker: &SharedBroker,
    preds: &[WirePredicate],
) -> Result<Subscription, TypeError> {
    let predicates = broker.with_vocab(|vocab| {
        preds
            .iter()
            .map(|p| {
                let attr = vocab.attr(&p.attr);
                let value = match &p.value {
                    WireValue::Int(i) => Value::Int(*i),
                    WireValue::Str(s) => vocab.string(s),
                };
                Predicate::new(attr, p.op, value)
            })
            .collect::<Vec<_>>()
    });
    Subscription::from_predicates(predicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WireEvent;
    use pubsub_bench::CountingAllocator;
    use pubsub_core::EngineKind;

    /// Heap allocations one publish costs on the reader thread, through
    /// the steps `flush_publishes` and `deliver` take for it: verified
    /// payload, borrowed decode, interning, `Event::from_pairs`, one
    /// notify and the ack. The batch's own containers are not counted:
    /// one read's whole batch shares them.
    fn allocations_per_publish(broker: &SharedBroker, n: i64) -> u64 {
        let event = WireEvent {
            pairs: (0..n)
                .map(|i| (format!("attr{i}"), WireValue::Int(i)))
                .collect(),
        };
        let bytes = Frame::Publish {
            req: 7,
            event: event.clone(),
        }
        .to_bytes();
        let matched = vec![vec![SubscriptionId(3)]];
        let mut reader = FrameReader::new();
        let mut notifies = Notifies::default();
        let mut count = 0;
        // The first round interns the names and sizes the reader's buffer
        // and the batch's containers; the second is the steady state.
        for _ in 0..2 {
            notifies.events.clear();
            notifies.ids.clear();
            let before = CountingAllocator::thread_allocations();
            reader.extend(&bytes);
            let span = reader.next_payload().unwrap().unwrap();
            let publish = PublishRef::parse(reader.payload(span)).unwrap().unwrap();
            let pairs = broker.with_vocab(|vocab| {
                let mut fresh = Vec::new();
                let mut pairs = resolve_event(vocab, publish.body, &mut fresh).unwrap();
                intern_fresh(vocab, &mut pairs, &mut fresh);
                pairs
            });
            let interned = Event::from_pairs(pairs).unwrap();
            for id in &matched[0] {
                notifies.push(0, id.0);
            }
            let (_, ids) = &notifies.events[0];
            let mut notify = Vec::new();
            frame::write_notify(&mut notify, 1, &notifies.ids[ids.clone()], publish.body);
            let ack = publish_reply(publish.req, Ok(0), &matched).to_bytes();
            count = CountingAllocator::thread_allocations() - before;

            assert_eq!(interned.len() as i64, n);
            let expected = Frame::Notify {
                seq: 1,
                ids: vec![3],
                event: event.clone(),
            };
            assert_eq!(notify, expected.to_bytes());
            let expected = Frame::Ack(Ack::Publish { req: 7, matched: 1 });
            assert_eq!(ack, expected.to_bytes());
        }
        count
    }

    #[test]
    fn a_publish_allocates_three_times_whatever_its_size() {
        let broker = SharedBroker::new(EngineKind::Counting, 1);
        // The event's pair vector, the notify record and the ack record.
        assert_eq!(allocations_per_publish(&broker, 2), 3);
        assert_eq!(allocations_per_publish(&broker, 33), 3);
    }
}
