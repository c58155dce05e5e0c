//! One end-to-end run: spawn the server, set it up over the wire, then drive
//! it through interleaved paced / saturate / mutate phases from two threads
//! and two connections (three on `forward_small`), checking every notify.
//!
//! Thread A (the caller's) owns publisher connection P: it paces or
//! saturates, drains P's acks between sends, and samples the server's CPU
//! clock at window boundaries. Thread B owns the subscriber connection(s):
//! it reads and checks notifies and issues every subscribe/unsubscribe.

use crate::conn::Conn;
use crate::oracle::{self, churned_id_allowed, ChurnSpan, SessionOracle};
use crate::schedule::Schedule;
use crate::server::{SchedSample, ServerProcess, ServerSpec};
use crate::stats::{self, Better, Windows, WINDOW_NS};
use crate::trace::Tracer;
use crate::workload::{self, Generated, Workload};
use pubsub_net::{Ack, Frame, WireValue};
use pubsub_types::Subscription;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Publishes kept outstanding in the saturate phase.
const SATURATE_DEPTH: usize = 64;
/// Subscribes kept outstanding while the population is loaded.
const LOAD_DEPTH: usize = 256;
/// Unmeasured warm-up before the first round.
const WARMUP_S: f64 = 0.5;
/// A phase is at least this long, so it holds at least one whole window.
const MIN_PHASE_S: f64 = 0.05;
/// The pacing thread yields its core only while the next publish is at
/// least this far away.
const YIELD_MARGIN_NS: u64 = 50_000;
/// How long a phase waits for stragglers before counting them as lost.
const SETTLE: Duration = Duration::from_secs(3);

pub struct RunConfig {
    pub workload: Workload,
    pub population: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub engine: String,
    pub server_bin: PathBuf,
    /// Scratch space inside the checkout: WAL directories and pid files.
    pub work_dir: PathBuf,
}

/// Nanoseconds since the run began, shared by both threads.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Operations that went wrong, by kind, as one thread counted them. Nothing
/// here is averaged away: the run reports the sum over both threads as
/// `failed` against everything it attempted.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    pub publish_refused: u64,
    pub publish_unacked: u64,
    pub publish_match_count: u64,
    pub notify_missing: u64,
    pub notify_duplicate: u64,
    pub notify_wrong_ids: u64,
    pub notify_extra_id: u64,
    pub notify_unknown_event: u64,
    pub sequence_gap: u64,
    pub mutation_refused: u64,
    pub mutation_unacked: u64,
    pub unexpected_frame: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.publish_refused
            + self.publish_unacked
            + self.publish_match_count
            + self.notify_missing
            + self.notify_duplicate
            + self.notify_wrong_ids
            + self.notify_extra_id
            + self.notify_unknown_event
            + self.sequence_gap
            + self.mutation_refused
            + self.mutation_unacked
            + self.unexpected_frame
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    Paced,
    Saturate,
    Mutate,
    Stop,
}

#[derive(Debug, Clone, Copy)]
struct PhasePlan {
    kind: PhaseKind,
    start_ns: u64,
    end_ns: u64,
}

/// What thread A remembers of a phase it ran.
#[derive(Debug, Clone)]
struct PhaseRecord {
    plan: PhasePlan,
    measured: bool,
    traced: bool,
    first_eid: u64,
    end_eid: u64,
    cpu: Vec<CpuSample>,
}

/// The server's CPU clock read at (just after) a window boundary.
#[derive(Debug, Clone, Copy)]
struct CpuSample {
    cpu_ns: u64,
    next_eid: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PubRecord {
    due_ns: u64,
    sent_ns: u64,
    ack_ns: u64,
}

/// Thread A's half: the publisher connection and everything sent on it.
struct Publisher<'a> {
    conn: Conn,
    clock: Clock,
    server: &'a ServerProcess,
    /// One `Frame::Publish` per pool event; request and event id are
    /// patched in before each send.
    templates: Vec<Frame>,
    /// Static subscriptions each pool event matches, all sessions.
    match_count: Vec<u32>,
    log: Vec<PubRecord>,
    outstanding: usize,
    buf: Vec<u8>,
    failures: Failures,
    /// Time spent building and writing publish frames.
    gen_ns: u64,
    tracer: Tracer,
    tracing: bool,
}

impl Publisher<'_> {
    fn next_eid(&self) -> u64 {
        self.log.len() as u64
    }

    /// Encodes the next event into the send buffer.
    fn stage(&mut self, due_ns: u64, now_ns: u64) {
        let eid = self.next_eid();
        let slot = eid as usize % self.templates.len();
        let template = &mut self.templates[slot];
        if let Frame::Publish { req, event } = template {
            *req = eid as u32 + 1;
            event.pairs[0].1 = WireValue::Int(eid as i64);
        }
        template.write_to(&mut self.buf);
        self.log.push(PubRecord {
            due_ns,
            sent_ns: now_ns,
            ack_ns: 0,
        });
        self.outstanding += 1;
    }

    /// Writes the staged frames; `staged_at_ns` is when staging began.
    fn flush(&mut self, staged_at_ns: u64, first_eid: u64) -> Result<(), String> {
        let sent = self.conn.send(&self.buf);
        self.buf.clear();
        let done_ns = self.clock.now_ns();
        self.gen_ns += done_ns - staged_at_ns;
        if self.tracing {
            for eid in first_eid..self.next_eid() {
                self.tracer
                    .record("publish.send", None, eid, staged_at_ns, done_ns);
            }
        }
        sent
    }

    fn on_frame(&mut self, frame: Frame, now_ns: u64) {
        match frame {
            Frame::Ack(Ack::Publish { req, matched }) => {
                let eid = req.wrapping_sub(1) as usize;
                let Some(record) = self.log.get_mut(eid) else {
                    self.failures.unexpected_frame += 1;
                    return;
                };
                record.ack_ns = now_ns;
                self.outstanding = self.outstanding.saturating_sub(1);
                // Churned subscriptions may add matches, never remove any.
                if matched < self.match_count[eid % self.match_count.len()] {
                    self.failures.publish_match_count += 1;
                }
            }
            Frame::Error { .. } => {
                self.failures.publish_refused += 1;
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            _ => self.failures.unexpected_frame += 1,
        }
    }

    /// One read of P, then every ack it completed.
    fn drain(&mut self) -> Result<(), String> {
        if self.conn.fill()? > 0 {
            let now_ns = self.clock.now_ns();
            while let Some(frame) = self.conn.buffered()? {
                self.on_frame(frame, now_ns);
            }
        }
        Ok(())
    }

    fn sample_cpu(&self, samples: &mut Vec<CpuSample>) {
        samples.push(CpuSample {
            cpu_ns: self.server.cpu_ns(),
            next_eid: self.next_eid(),
        });
    }

    /// Open loop: sends every publish when it is due, whatever has or has
    /// not come back, and reads acks only in the gaps.
    fn paced(
        &mut self,
        plan: PhasePlan,
        rate: f64,
        cpu: &mut Vec<CpuSample>,
    ) -> Result<(), String> {
        self.conn.set_nonblocking(true)?;
        let schedule = Schedule::new(plan.start_ns, plan.end_ns, rate);
        let mut k = 0;
        let mut next_sample_ns = plan.start_ns;
        loop {
            let now_ns = self.clock.now_ns();
            if now_ns >= plan.end_ns {
                break;
            }
            if now_ns >= next_sample_ns {
                self.sample_cpu(cpu);
                next_sample_ns += WINDOW_NS;
            }
            let due = schedule.due_by(now_ns);
            if k < due {
                let first_eid = self.next_eid();
                while k < due {
                    self.stage(schedule.due_ns(k), now_ns);
                    k += 1;
                }
                self.flush(now_ns, first_eid)?;
            } else {
                if self.outstanding > 0 {
                    self.drain()?;
                }
                // Spin politely while the next publish is far off: with two
                // vCPUs the server's threads (and the kernel's, on the
                // durable workload) need this core too. Close to the due
                // time a yield could return late, so it is a plain spin.
                if schedule.due_ns(k) > now_ns + YIELD_MARGIN_NS {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        self.sample_cpu(cpu);
        Ok(())
    }

    /// Closed loop: keeps [`SATURATE_DEPTH`] publishes outstanding.
    fn saturate(&mut self, plan: PhasePlan) -> Result<(), String> {
        self.conn.set_nonblocking(false)?;
        self.conn.set_read_timeout(Some(Duration::from_millis(5)))?;
        while self.clock.now_ns() < plan.start_ns {
            std::hint::spin_loop();
        }
        loop {
            let now_ns = self.clock.now_ns();
            if now_ns >= plan.end_ns {
                return Ok(());
            }
            if self.outstanding < SATURATE_DEPTH {
                let first_eid = self.next_eid();
                while self.outstanding < SATURATE_DEPTH {
                    self.stage(now_ns, now_ns);
                }
                self.flush(now_ns, first_eid)?;
            }
            self.drain()?;
        }
    }

    /// Waits for the acks still outstanding at the end of a phase.
    fn settle(&mut self) -> Result<(), String> {
        self.conn.set_nonblocking(false)?;
        self.conn.set_read_timeout(Some(Duration::from_millis(5)))?;
        let deadline = Instant::now() + SETTLE;
        while self.outstanding > 0 && Instant::now() < deadline {
            self.drain()?;
        }
        self.failures.publish_unacked += self.outstanding as u64;
        self.outstanding = 0;
        Ok(())
    }

    /// Ping → Pong round trips on P while nothing else is in flight.
    fn ping_rtts_us(&mut self, count: usize) -> Result<Vec<f64>, String> {
        self.conn.set_nonblocking(false)?;
        self.conn.set_read_timeout(Some(Duration::from_secs(1)))?;
        let mut out = Vec::with_capacity(count);
        for nonce in 0..count as u64 {
            let bytes = Frame::Ping { nonce }.to_bytes();
            let t0 = self.clock.now_ns();
            self.conn.send(&bytes)?;
            match self.conn.recv()? {
                Frame::Pong { nonce: got } if got == nonce => {
                    out.push((self.clock.now_ns() - t0) as f64 / 1e3);
                }
                other => return Err(format!("expected a pong, got {other:?}")),
            }
        }
        Ok(out)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MutKind {
    Subscribe,
    Unsubscribe,
}

/// One subscribe or unsubscribe issued after set-up.
#[derive(Debug, Clone, Copy)]
struct MutOp {
    kind: MutKind,
    /// Index into the churn pool (of the subscription added or removed).
    churn_index: usize,
    sent_ns: u64,
    acked_ns: u64,
    /// Server id: from the ack for a subscribe, the target of an unsubscribe.
    id: u32,
    /// The subscribe op this unsubscribe removes.
    removes: usize,
    phase: usize,
}

/// A notify id outside the static population, judged after the run.
#[derive(Debug, Clone, Copy)]
struct ExtraId {
    eid: u64,
    id: u32,
    read_ns: u64,
}

/// Thread B's half: the subscriber connections and every mutation.
struct Subscriber<'a> {
    conns: Vec<Conn>,
    clock: Clock,
    oracles: Vec<SessionOracle>,
    pool_len: usize,
    /// First event id this subscriber should see.
    base_eid: u64,
    /// Per session: (event id, when the notify was read).
    seen: Vec<Vec<(u64, u64)>>,
    last_seq: Vec<u64>,
    extras: Vec<ExtraId>,
    scratch_ids: Vec<u32>,
    churn: &'a [Subscription],
    ops: Vec<MutOp>,
    /// Acked subscribe ops not yet unsubscribed, oldest first.
    live: VecDeque<usize>,
    pending_mutations: usize,
    next_churn: usize,
    buf: Vec<u8>,
    failures: Failures,
    error: Option<String>,
}

impl<'a> Subscriber<'a> {
    /// A subscriber whose sessions have each seen the set-up's event 0.
    fn new(
        conns: Vec<Conn>,
        clock: Clock,
        oracles: Vec<SessionOracle>,
        pool_len: usize,
        churn: &'a [Subscription],
    ) -> Self {
        let sessions = oracles.len();
        Self {
            conns,
            clock,
            oracles,
            pool_len,
            base_eid: 1,
            seen: vec![Vec::new(); sessions],
            last_seq: vec![1; sessions],
            extras: Vec::new(),
            scratch_ids: Vec::new(),
            churn,
            ops: Vec::new(),
            live: VecDeque::new(),
            pending_mutations: 0,
            next_churn: 0,
            buf: Vec::new(),
            failures: Failures::default(),
            error: None,
        }
    }

    fn on_frame(&mut self, session: usize, frame: Frame, now_ns: u64) {
        match frame {
            Frame::Notify { seq, ids, event } => {
                if seq != self.last_seq[session] + 1 {
                    self.failures.sequence_gap += 1;
                }
                self.last_seq[session] = seq;
                let Some(eid) = workload::eid_of(&event) else {
                    self.failures.notify_unknown_event += 1;
                    return;
                };
                self.seen[session].push((eid, now_ns));
                self.scratch_ids.clear();
                let pool_index = eid as usize % self.pool_len;
                match self.oracles[session].check(pool_index, &ids, &mut self.scratch_ids) {
                    Ok(()) => {
                        for &id in &self.scratch_ids {
                            self.extras.push(ExtraId {
                                eid,
                                id,
                                read_ns: now_ns,
                            });
                        }
                    }
                    Err(_) => self.failures.notify_wrong_ids += 1,
                }
            }
            Frame::Ack(Ack::Subscribe { req, id }) => self.on_mutation_ack(req, Some(id), now_ns),
            Frame::Ack(Ack::Unsubscribe { req, existed }) => {
                if !existed {
                    self.failures.mutation_refused += 1;
                }
                self.on_mutation_ack(req, None, now_ns);
            }
            Frame::Error { .. } => {
                self.failures.mutation_refused += 1;
                self.pending_mutations = self.pending_mutations.saturating_sub(1);
            }
            _ => self.failures.unexpected_frame += 1,
        }
    }

    fn on_mutation_ack(&mut self, req: u32, id: Option<u32>, now_ns: u64) {
        let index = req.wrapping_sub(1) as usize;
        let Some(op) = self.ops.get_mut(index) else {
            self.failures.unexpected_frame += 1;
            return;
        };
        op.acked_ns = now_ns;
        self.pending_mutations = self.pending_mutations.saturating_sub(1);
        if let Some(id) = id {
            op.id = id;
            self.live.push_back(index);
        }
    }

    /// Stages the next mutation: removes the oldest live churned
    /// subscription when `remove` asks for it and there is one, else adds
    /// the next one of the churn pool.
    fn stage_mutation(&mut self, remove: bool, now_ns: u64, phase: usize) {
        let req = self.ops.len() as u32 + 1;
        let removed = if remove { self.live.pop_front() } else { None };
        let op = match removed {
            Some(target) => {
                let id = self.ops[target].id;
                Frame::Unsubscribe { req, id }.write_to(&mut self.buf);
                MutOp {
                    kind: MutKind::Unsubscribe,
                    churn_index: self.ops[target].churn_index,
                    sent_ns: now_ns,
                    acked_ns: 0,
                    id,
                    removes: target,
                    phase,
                }
            }
            None => {
                let churn_index = self.next_churn % self.churn.len();
                self.next_churn += 1;
                let preds = workload::wire_predicates(&self.churn[churn_index]);
                Frame::Subscribe { req, preds }.write_to(&mut self.buf);
                MutOp {
                    kind: MutKind::Subscribe,
                    churn_index,
                    sent_ns: now_ns,
                    acked_ns: 0,
                    id: 0,
                    removes: 0,
                    phase,
                }
            }
        };
        self.ops.push(op);
        self.pending_mutations += 1;
    }

    fn flush(&mut self) -> Result<(), String> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let sent = self.conns[0].send(&self.buf);
        self.buf.clear();
        sent
    }

    /// Reads every session once (each read waits at most the read timeout)
    /// and handles what arrived.
    fn pump(&mut self) -> Result<(), String> {
        for session in 0..self.conns.len() {
            if self.conns[session].fill()? == 0 {
                continue;
            }
            let now_ns = self.clock.now_ns();
            while let Some(frame) = self.conns[session].buffered()? {
                self.on_frame(session, frame, now_ns);
            }
        }
        Ok(())
    }

    /// Runs one phase: mutations as the plan asks, notifies as they come,
    /// until the publisher is done and everything it sent has been seen.
    fn phase(
        &mut self,
        plan: PhasePlan,
        phase: usize,
        background_rate: f64,
        ctl: &Control,
    ) -> Result<(), String> {
        let closed_loop = plan.kind == PhaseKind::Mutate;
        let schedule = (!closed_loop && background_rate > 0.0)
            .then(|| Schedule::new(plan.start_ns, plan.end_ns, background_rate));
        let mut k = 0;
        let mut done_since: Option<Instant> = None;
        loop {
            let now_ns = self.clock.now_ns();
            if now_ns >= plan.start_ns && now_ns < plan.end_ns {
                if closed_loop && self.pending_mutations == 0 {
                    // Subscribe, then unsubscribe it, then the next pair.
                    self.stage_mutation(!self.live.is_empty(), now_ns, phase);
                } else if let Some(schedule) = &schedule {
                    while k < schedule.due_by(now_ns) {
                        let remove = k % 2 == 1 || self.live.len() > 8;
                        self.stage_mutation(remove, now_ns, phase);
                        k += 1;
                    }
                }
                self.flush()?;
            }
            self.pump()?;
            if ctl.publisher_done.load(Ordering::Acquire) {
                let expected = ctl.sent_total.load(Ordering::Acquire) - self.base_eid;
                let all_seen = self.seen.iter().all(|s| s.len() as u64 >= expected);
                if all_seen && self.pending_mutations == 0 {
                    return Ok(());
                }
                let since = *done_since.get_or_insert_with(Instant::now);
                if since.elapsed() > SETTLE {
                    self.failures.mutation_unacked += self.pending_mutations as u64;
                    self.pending_mutations = 0;
                    return Ok(());
                }
            }
        }
    }

    fn run(&mut self, background_rate: f64, ctl: &Control) {
        let mut phase = 0;
        loop {
            ctl.barrier.wait();
            let plan = *ctl.plan.lock().expect("plan lock");
            if plan.kind == PhaseKind::Stop {
                return;
            }
            if self.error.is_none() {
                if let Err(e) = self.phase(plan, phase, background_rate, ctl) {
                    self.error = Some(e);
                }
            }
            phase += 1;
            ctl.barrier.wait();
        }
    }
}

/// What the two threads share.
struct Control {
    barrier: Barrier,
    plan: Mutex<PhasePlan>,
    publisher_done: AtomicBool,
    sent_total: AtomicU64,
}

/// A server that has been set up: population loaded and acked, first notify
/// received.
struct Ready {
    server: ServerProcess,
    publisher: Conn,
    subscribers: Vec<Conn>,
    /// Server id of each population entry.
    id_of: Vec<u32>,
    setup_s: f64,
}

fn load_population(
    conn: &mut Conn,
    generated: &Generated,
    session: u8,
    id_of: &mut [u32],
) -> Result<(), String> {
    let mine: Vec<usize> = (0..generated.subs.len())
        .filter(|&i| generated.session_of[i] == session)
        .collect();
    let (mut next, mut acked) = (0, 0);
    let mut buf = Vec::new();
    while acked < mine.len() {
        buf.clear();
        while next < mine.len() && next - acked < LOAD_DEPTH {
            let i = mine[next];
            Frame::Subscribe {
                req: i as u32 + 1,
                preds: workload::wire_predicates(&generated.subs[i]),
            }
            .write_to(&mut buf);
            next += 1;
        }
        if !buf.is_empty() {
            conn.send(&buf)?;
        }
        let mut frame = Some(conn.recv()?);
        while let Some(f) = frame {
            match f {
                Frame::Ack(Ack::Subscribe { req, id }) => {
                    id_of[req as usize - 1] = id;
                    acked += 1;
                }
                other => return Err(format!("subscribe refused during set-up: {other:?}")),
            }
            frame = conn.buffered()?;
        }
    }
    Ok(())
}

fn set_up(config: &RunConfig, generated: &Generated, instance: usize) -> Result<Ready, String> {
    let durable_dir = config
        .workload
        .durable()
        .then(|| config.work_dir.join(format!("wal-{instance}")));
    let server = ServerProcess::spawn(&ServerSpec {
        binary: &config.server_bin,
        engine: &config.engine,
        durable_dir: durable_dir.as_deref(),
        pid_dir: &config.work_dir,
    })?;
    let mut publisher = Conn::open(server.addr)?;
    let mut id_of = vec![0; generated.subs.len()];
    let mut subscribers = Vec::new();
    for session in 0..config.workload.sessions() {
        let mut conn = Conn::open(server.addr)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        load_population(&mut conn, generated, session as u8, &mut id_of)?;
        subscribers.push(conn);
    }
    // Event 0: set-up ends when its notify has reached every subscriber.
    publisher.set_read_timeout(Some(Duration::from_secs(30)))?;
    let first = Frame::Publish {
        req: 1,
        event: workload::wire_event(&generated.events[0], 0),
    };
    publisher.send(&first.to_bytes())?;
    for conn in &mut subscribers {
        match conn.recv()? {
            Frame::Notify { seq: 1, .. } => {}
            other => return Err(format!("expected the first notify, got {other:?}")),
        }
    }
    let setup_s = server.spawned_at.elapsed().as_secs_f64();
    match publisher.recv()? {
        Frame::Ack(Ack::Publish { req: 1, .. }) => {}
        other => return Err(format!("expected the first publish ack, got {other:?}")),
    }
    Ok(Ready {
        server,
        publisher,
        subscribers,
        id_of,
        setup_s,
    })
}

/// Everything a run measured, before it is turned into named metrics.
pub struct Outcome {
    pub attempted: u64,
    /// The publisher thread's and the subscriber thread's.
    pub failures: [Failures; 2],
    /// The candidate-index oracle equals brute force on the sampled events.
    pub oracle_agrees: bool,
    pub setup_s: f64,
    pub setups: Vec<f64>,
    pub spawn_to_listen_ms: f64,
    pub rss_mib: f64,
    pub throughput_eps: f64,
    pub notify_p50_us: f64,
    pub server_cpu_us_per_event: f64,
    pub subscribe_p50_us: f64,
    pub churn_ops_per_s: f64,
    /// Paced windows whose generator lag stayed under a tenth of their
    /// latency, of all paced windows.
    pub clean_windows: usize,
    pub paced_windows: usize,
    pub lag_p50_us: f64,
    pub lag_p99_us: f64,
    pub notify_all: Vec<f64>,
    pub slow_window_share: f64,
    pub gen_ns_per_event: f64,
    /// Saturation throughput of traced and of untraced rounds (trace runs).
    pub throughput_traced_eps: f64,
    pub throughput_untraced_eps: f64,
    pub rtt_p50_us: f64,
    pub ctx_switches_per_event: f64,
    pub runq_wait_us_per_event: f64,
    pub server_threads: f64,
    pub events_published: u64,
    pub tracer: Tracer,
}

impl Outcome {
    /// The run's own health gates: a late generator or too few clean
    /// windows make the figures meaningless, so the run fails.
    pub fn gate(&self) -> Result<(), String> {
        let needed = 10.min(self.paced_windows.div_ceil(2));
        if self.clean_windows < needed {
            return Err(format!(
                "only {} of {} paced windows are clean (generator lag under 10% of latency); need {needed}",
                self.clean_windows, self.paced_windows
            ));
        }
        if self.lag_p50_us > 0.10 * self.notify_p50_us {
            return Err(format!(
                "the generator ran late: median lag {:.1} us against notify_p50_us {:.1}",
                self.lag_p50_us, self.notify_p50_us
            ));
        }
        Ok(())
    }
}

pub fn run(config: &RunConfig, generated: &Generated) -> Result<Outcome, String> {
    let workload = &config.workload;

    // Set-up, with the oracle worked out on the second thread meanwhile.
    let (expected, oracle_agrees, mut ready, setups) = std::thread::scope(|scope| {
        let oracle = scope.spawn(|| {
            let expected = oracle::expected_matches(&generated.subs, &generated.events);
            let wrong =
                oracle::brute_force_disagreements(&generated.subs, &generated.events, &expected);
            (expected, wrong == 0)
        });
        let mut setups = Vec::new();
        let mut ready = None;
        for instance in 0..workload.setups {
            drop(ready.take()); // one server at a time
            match set_up(config, generated, instance) {
                Ok(r) => {
                    setups.push(r.setup_s);
                    ready = Some(r);
                }
                Err(e) => {
                    let _ = oracle.join();
                    return Err(e);
                }
            }
        }
        let (expected, agrees) = oracle.join().map_err(|_| "the oracle thread panicked")?;
        Ok((
            expected,
            agrees,
            ready.expect("at least one set-up"),
            setups,
        ))
    })?;
    let setup_s = stats::best_windows(&setups, Better::Lower).expect("at least one set-up");

    let clock = Clock::start();
    let sessions = workload.sessions();
    let oracles: Vec<SessionOracle> = (0..sessions)
        .map(|s| SessionOracle::new(&expected, &ready.id_of, &generated.session_of, s as u8))
        .collect();
    for conn in &mut ready.subscribers {
        conn.set_read_timeout(Some(Duration::from_millis(1)))?;
    }
    let mut subscriber = Subscriber::new(
        std::mem::take(&mut ready.subscribers),
        clock,
        oracles,
        generated.events.len(),
        &generated.churn,
    );
    let mut publisher = Publisher {
        conn: ready.publisher,
        clock,
        server: &ready.server,
        templates: generated
            .events
            .iter()
            .map(|e| Frame::Publish {
                req: 0,
                event: workload::wire_event(e, 0),
            })
            .collect(),
        match_count: expected.iter().map(|hits| hits.len() as u32).collect(),
        // Event 0 was the set-up's.
        log: vec![PubRecord::default()],
        outstanding: 0,
        buf: Vec::new(),
        failures: Failures::default(),
        gen_ns: 0,
        tracer: Tracer::default(),
        tracing: false,
    };

    // The timeline: warm-up, then rounds of paced / saturate / mutate.
    let seconds = if config.trace {
        0.4 * config.seconds
    } else {
        config.seconds
    };
    let rounds = ((seconds / (4.0 * MIN_PHASE_S)) as usize).clamp(1, 20);
    let paced_s = seconds / (2.0 * rounds as f64);
    let short_s = seconds / (4.0 * rounds as f64);
    let mut timeline = vec![
        (PhaseKind::Paced, WARMUP_S * 0.6, false, false),
        (PhaseKind::Saturate, WARMUP_S * 0.2, false, false),
        (PhaseKind::Mutate, WARMUP_S * 0.2, false, false),
    ];
    for round in 0..rounds {
        // In a traced run every other round records spans, so traced and
        // untraced throughput are taken from the same stretch of host time.
        let traced = config.trace && round % 2 == 0;
        timeline.push((PhaseKind::Paced, paced_s, true, traced));
        timeline.push((PhaseKind::Saturate, short_s, true, traced));
        timeline.push((PhaseKind::Mutate, short_s, true, traced));
    }

    let ctl = Control {
        barrier: Barrier::new(2),
        plan: Mutex::new(PhasePlan {
            kind: PhaseKind::Stop,
            start_ns: 0,
            end_ns: 0,
        }),
        publisher_done: AtomicBool::new(false),
        sent_total: AtomicU64::new(0),
    };
    let mut records: Vec<PhaseRecord> = Vec::new();
    let mut rss_mib = 0.0;
    let mut sched_before = SchedSample::default();
    let mut eid_before = 0;
    let background = workload.background_mutations;

    let publisher_result: Result<(), String> = std::thread::scope(|scope| {
        let subscriber = &mut subscriber;
        let ctl = &ctl;
        scope.spawn(move || subscriber.run(background, ctl));
        let mut result = Ok(());
        for &(kind, length_s, measured, traced) in &timeline {
            if measured && records.iter().all(|r| !r.measured) {
                // Warm-up is over: memory and scheduler baselines.
                match ready.server.rss_mib() {
                    Ok(mib) => rss_mib = mib,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
                sched_before = ready.server.sched();
                eid_before = publisher.next_eid();
            }
            let start_ns = clock.now_ns() + 2_000_000;
            let plan = PhasePlan {
                kind,
                start_ns,
                end_ns: start_ns + (length_s * 1e9) as u64,
            };
            *ctl.plan.lock().expect("plan lock") = plan;
            ctl.publisher_done.store(false, Ordering::Release);
            ctl.barrier.wait();
            let first_eid = publisher.next_eid();
            let mut cpu = Vec::new();
            publisher.tracing = traced;
            let body = match kind {
                PhaseKind::Saturate => publisher.saturate(plan),
                _ => publisher.paced(plan, workload.paced_rate, &mut cpu),
            };
            let body = body.and_then(|()| publisher.settle());
            records.push(PhaseRecord {
                plan,
                measured,
                traced,
                first_eid,
                end_eid: publisher.next_eid(),
                cpu,
            });
            ctl.sent_total
                .store(publisher.next_eid(), Ordering::Release);
            ctl.publisher_done.store(true, Ordering::Release);
            ctl.barrier.wait();
            if let Err(e) = body {
                result = Err(e);
                break;
            }
        }
        ctl.plan.lock().expect("plan lock").kind = PhaseKind::Stop;
        ctl.barrier.wait();
        result
    });
    publisher_result?;
    if let Some(e) = subscriber.error.take() {
        return Err(format!("subscriber: {e}"));
    }

    // Per-layer figures only the process tables and a quiet wire can give.
    let events_measured = publisher.next_eid() - eid_before;
    let sched_after = ready.server.sched();
    let per_event = |delta: u64| delta as f64 / events_measured.max(1) as f64;
    let ctx_switches_per_event = per_event(sched_after.ctx_switches - sched_before.ctx_switches);
    let runq_wait_us_per_event =
        per_event(sched_after.runq_wait_ns - sched_before.runq_wait_ns) / 1e3;
    let rtt_p50_us = if config.trace {
        stats::median(&publisher.ping_rtts_us(300)?).unwrap_or(0.0)
    } else {
        0.0
    };

    // ---- merge the two threads' logs ---------------------------------
    let log = &publisher.log;
    // What only the merge can see is the subscriber's to answer for.
    let failures = &mut subscriber.failures;
    // When the last subscriber had read event `eid`'s notify; 0 if any of
    // them never did.
    let mut read_ns = vec![0u64; log.len()];
    let mut complete = vec![true; log.len()];
    for seen in &subscriber.seen {
        let mut at = vec![0u64; log.len()];
        for &(eid, at_ns) in seen {
            match at.get_mut(eid as usize) {
                Some(slot) if *slot == 0 => *slot = at_ns,
                Some(_) => failures.notify_duplicate += 1,
                None => failures.notify_unknown_event += 1,
            }
        }
        // Event 0 was the set-up's, read before this log began.
        for eid in 1..log.len() {
            if at[eid] == 0 {
                failures.notify_missing += 1;
                complete[eid] = false;
            }
            read_ns[eid] = read_ns[eid].max(at[eid]);
        }
    }
    for eid in 0..log.len() {
        if !complete[eid] {
            read_ns[eid] = 0;
        }
    }
    for extra in &subscriber.extras {
        let allowed = subscriber
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.kind == MutKind::Subscribe && op.id == extra.id && op.acked_ns > 0)
            .any(|(index, op)| {
                let removed = subscriber
                    .ops
                    .iter()
                    .find(|u| u.kind == MutKind::Unsubscribe && u.removes == index)
                    .map(|u| if u.acked_ns > 0 { u.acked_ns } else { u64::MAX });
                let span = ChurnSpan {
                    subscribe_sent_ns: op.sent_ns,
                    unsubscribe_acked_ns: removed,
                };
                let pool_index = extra.eid as usize % generated.events.len();
                churned_id_allowed(
                    &span,
                    &generated.churn[op.churn_index],
                    &generated.events[pool_index],
                    log[extra.eid as usize].sent_ns,
                    extra.read_ns,
                )
            });
        if !allowed {
            failures.notify_extra_id += 1;
        }
    }

    // ---- windows ------------------------------------------------------
    let mut latency_windows = Vec::new(); // per paced window: median latency, us
    let mut lag_windows = Vec::new();
    let mut cpu_windows = Vec::new();
    let mut all_latency = Vec::new();
    let mut all_lag = Vec::new();
    let mut rate_windows = [Vec::new(), Vec::new()]; // untraced, traced
    let mut subscribe_windows = Vec::new();
    let mut churn_windows = Vec::new();
    for (phase, record) in records.iter().enumerate().filter(|(_, r)| r.measured) {
        let (start_ns, end_ns) = (record.plan.start_ns, record.plan.end_ns);
        let events = &log[record.first_eid as usize..record.end_eid as usize];
        match record.plan.kind {
            PhaseKind::Paced => {
                let mut latency = Windows::new(start_ns, end_ns);
                let mut lag = Windows::new(start_ns, end_ns);
                for (offset, e) in events.iter().enumerate() {
                    let read = read_ns[record.first_eid as usize + offset];
                    if read == 0 {
                        continue;
                    }
                    let us = (read - e.due_ns) as f64 / 1e3;
                    latency.add(e.due_ns, us);
                    all_latency.push(us);
                    let late = (e.sent_ns - e.due_ns) as f64 / 1e3;
                    lag.add(e.due_ns, late);
                    all_lag.push(late);
                }
                let medians = latency.medians();
                let lags = lag.medians();
                for w in 0..latency.len() {
                    let (Some(m), Some(l)) = (medians[w], lags[w]) else {
                        continue;
                    };
                    let cpu = match (record.cpu.get(w), record.cpu.get(w + 1)) {
                        (Some(a), Some(b)) if b.next_eid > a.next_eid => {
                            (b.cpu_ns - a.cpu_ns) as f64 / (b.next_eid - a.next_eid) as f64 / 1e3
                        }
                        _ => continue,
                    };
                    latency_windows.push(m);
                    lag_windows.push(l);
                    cpu_windows.push(cpu);
                }
            }
            PhaseKind::Saturate => {
                let mut acks = Windows::new(start_ns, end_ns);
                for e in events.iter().filter(|e| e.ack_ns > 0) {
                    acks.add(e.ack_ns, 1.0);
                }
                rate_windows[record.traced as usize].extend(acks.rates());
            }
            PhaseKind::Mutate => {
                let mut subscribe = Windows::new(start_ns, end_ns);
                let mut acked = Windows::new(start_ns, end_ns);
                for op in subscriber.ops.iter().filter(|op| op.phase == phase) {
                    if op.acked_ns == 0 {
                        continue;
                    }
                    acked.add(op.acked_ns, 1.0);
                    if op.kind == MutKind::Subscribe {
                        subscribe.add(op.sent_ns, (op.acked_ns - op.sent_ns) as f64 / 1e3);
                    }
                }
                subscribe_windows.extend(subscribe.medians().into_iter().flatten());
                churn_windows.extend(acked.rates());
            }
            PhaseKind::Stop => {}
        }
    }
    let clean: Vec<usize> = (0..latency_windows.len())
        .filter(|&w| lag_windows[w] <= 0.10 * latency_windows[w])
        .collect();
    let clean_of = |values: &[f64]| -> Vec<f64> { clean.iter().map(|&w| values[w]).collect() };
    let notify_p50_us =
        stats::best_windows(&clean_of(&latency_windows), Better::Lower).unwrap_or(0.0);
    let server_cpu_us_per_event =
        stats::best_windows(&clean_of(&cpu_windows), Better::Lower).unwrap_or(0.0);
    let throughput_untraced_eps =
        stats::best_windows(&rate_windows[0], Better::Higher).unwrap_or(0.0);
    let throughput_traced_eps =
        stats::best_windows(&rate_windows[1], Better::Higher).unwrap_or(0.0);
    let all_rates: Vec<f64> = rate_windows.concat();

    // Frames written after set-up, plus the set-up itself.
    let attempted = log.len() as u64 + subscriber.ops.len() as u64 + generated.subs.len() as u64;
    Ok(Outcome {
        attempted,
        failures: [publisher.failures, subscriber.failures],
        oracle_agrees,
        setup_s,
        setups,
        spawn_to_listen_ms: ready.server.spawn_to_listen_ms,
        rss_mib,
        throughput_eps: stats::best_windows(&all_rates, Better::Higher).unwrap_or(0.0),
        notify_p50_us,
        server_cpu_us_per_event,
        subscribe_p50_us: stats::best_windows(&subscribe_windows, Better::Lower).unwrap_or(0.0),
        churn_ops_per_s: stats::best_windows(&churn_windows, Better::Higher).unwrap_or(0.0),
        clean_windows: clean.len(),
        paced_windows: latency_windows.len(),
        lag_p50_us: stats::percentile(&mut all_lag.clone(), 0.5).unwrap_or(0.0),
        lag_p99_us: stats::percentile(&mut all_lag, 0.99).unwrap_or(0.0),
        slow_window_share: stats::slow_window_share(&latency_windows, Better::Lower).unwrap_or(0.0),
        notify_all: all_latency,
        gen_ns_per_event: publisher.gen_ns as f64 / (log.len() - 1).max(1) as f64,
        throughput_traced_eps,
        throughput_untraced_eps,
        rtt_p50_us,
        ctx_switches_per_event,
        runq_wait_us_per_event,
        server_threads: sched_after.threads as f64,
        events_published: log.len() as u64 - 1,
        tracer: assemble_trace(publisher.tracer, &records, log, &read_ns),
    })
}

/// Adds the spans only the merged logs can give — ack and notify, children
/// of the send span that shares their event id — for the traced rounds.
fn assemble_trace(
    mut tracer: Tracer,
    records: &[PhaseRecord],
    log: &[PubRecord],
    read_ns: &[u64],
) -> Tracer {
    for record in records.iter().filter(|r| r.traced) {
        for eid in record.first_eid..record.end_eid {
            let e = log[eid as usize];
            if e.ack_ns > 0 {
                tracer.record(
                    "publish.ack",
                    Some("publish.send"),
                    eid,
                    e.sent_ns,
                    e.ack_ns,
                );
            }
            if read_ns[eid as usize] > 0 {
                let read = read_ns[eid as usize];
                tracer.record("notify.recv", Some("publish.send"), eid, e.sent_ns, read);
            }
        }
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The oracle is wired into the run: a notify with a missing id, with an
    /// id that should not be there, or out of sequence is counted as failed
    /// — and any failure makes the run report `correct: false`.
    #[test]
    fn an_injected_wrong_notify_fails_the_run() {
        let generated = workload::generate(&WORKLOADS[0], 500, 9);
        let expected = oracle::expected_matches(&generated.subs, &generated.events);
        let id_of: Vec<u32> = (10..510).collect();
        let oracle = SessionOracle::new(&expected, &id_of, &generated.session_of, 0);
        let right = |pool_index: usize| oracle.expected(pool_index).to_vec();
        let (right5, right6) = (right(5), right(6));
        let mut subscriber = Subscriber::new(
            Vec::new(),
            Clock::start(),
            vec![oracle],
            generated.events.len(),
            &generated.churn,
        );
        let notify = |seq, eid: u64, ids: Vec<u32>| Frame::Notify {
            seq,
            ids,
            event: workload::wire_event(&generated.events[eid as usize], eid),
        };
        subscriber.on_frame(0, notify(2, 5, right5.clone()), 100);
        assert_eq!(subscriber.failures.total(), 0);

        subscriber.on_frame(0, notify(3, 5, Vec::new()), 200);
        assert_eq!(subscriber.failures.notify_wrong_ids, 1, "missing id");
        let stranger = id_of.iter().find(|id| !right5.contains(id)).unwrap();
        let mut wrong = right5.clone();
        wrong.push(*stranger);
        wrong.sort_unstable();
        subscriber.on_frame(0, notify(4, 5, wrong), 300);
        assert_eq!(subscriber.failures.notify_wrong_ids, 2, "extra id");
        subscriber.on_frame(0, notify(6, 6, right6), 400);
        assert_eq!(subscriber.failures.sequence_gap, 1);
        assert_eq!(subscriber.failures.total(), 3);
    }
}
