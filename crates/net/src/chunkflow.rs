//! The §2.1 / Fig. 11 chunk-transfer protocol over simulated TCP.
//!
//! One flow moves a file (or several batched chunks) over a single TCP
//! connection. Chunks are strictly sequential at the HTTP level: the next
//! chunk request is not issued until the previous chunk is acknowledged
//! with an application-level `HTTP 200 OK`. Between chunks the TCP sender
//! therefore sits **idle** for the server processing time `T_srv` plus the
//! client processing time `T_clt` (Fig. 11); when that idle gap exceeds the
//! RTO, stock TCP restarts slow start (RFC 5681 §4.1) and the next chunk
//! pays several RTTs to regain its window — the paper's §4.2 diagnosis.

use std::collections::{BTreeMap, VecDeque};

use mcs_faults::{ConfigError, Windows};
use mcs_sim::{EventQueue, Ticket, Time};
use mcs_stats::rng::{stream_rng, ChaCha8Rng};

use crate::capture::{ChunkRecord, FlowTrace, IdleRecord};
use crate::device::{sample_srv, DeviceProfile, Direction};
use crate::link::{Link, LinkConfig, LinkStats, Transmit};
use crate::tcp::{CwndEvent, TcpSender, MAX_WINDOW_NO_SCALING};

/// Receive window a server that negotiates window scaling advertises to
/// uploading clients, bytes.
const SCALED_SERVER_WINDOW: u64 = 2 * 1024 * 1024;

/// Largest flow [`FlowConfig::validate`] accepts, bytes. A [`FlowTrace`]
/// keeps about three samples per segment, some 35 MB per GiB moved, so
/// this bounds one flow's samples near 140 MB.
const MAX_FLOW_BYTES: u64 = 4 << 30;

/// Most batches [`FlowConfig::validate`] accepts in one flow. The trace
/// keeps a [`ChunkRecord`] and an [`IdleRecord`] per batch, about 72 B,
/// so this bounds them near 75 MB.
const MAX_BATCHES: u64 = 1 << 20;

/// Flow configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Upload (client sends) or download (server sends).
    pub direction: Direction,
    /// Client device model.
    pub device: DeviceProfile,
    /// Data-path link (sender → receiver).
    pub data_link: LinkConfig,
    /// Reverse-path one-way delay for ACKs and control packets, µs.
    pub ack_delay: Time,
    /// HTTP chunk size, bytes (the service uses 512 KB; §4.3 proposes
    /// 1.5–2 MB).
    pub chunk_size: u64,
    /// Total bytes to move.
    pub total_bytes: u64,
    /// Chunks acknowledged per application round trip (1 = the deployed
    /// protocol; > 1 = the §4.3 batched-commands mitigation).
    pub batch_chunks: u32,
    /// Disable slow-start-after-idle (§4.3 SSAI ablation).
    pub disable_ssai: bool,
    /// Pace the first window after an idle gap instead of collapsing cwnd
    /// (the Visweswaraiah & Heidemann mitigation the paper cites as its
    /// reference 28).
    pub pacing_after_idle: bool,
    /// Server negotiates window scaling (§4.1/4.3 ablation; default off as
    /// deployed).
    pub server_window_scaling: bool,
    /// RNG seed for this flow.
    pub seed: u64,
}

impl FlowConfig {
    /// An upload flow with the deployed service's parameters.
    pub fn upload(device: DeviceProfile, total_bytes: u64, seed: u64) -> Self {
        Self {
            direction: Direction::Upload,
            device,
            data_link: LinkConfig::default(),
            ack_delay: LinkConfig::default().delay,
            chunk_size: 512 * 1024,
            total_bytes,
            batch_chunks: 1,
            disable_ssai: false,
            pacing_after_idle: false,
            server_window_scaling: false,
            seed,
        }
    }

    /// A download flow with the deployed service's parameters.
    pub fn download(device: DeviceProfile, total_bytes: u64, seed: u64) -> Self {
        Self {
            direction: Direction::Download,
            ..Self::upload(device, total_bytes, seed)
        }
    }

    /// Receive window the data *receiver* advertises: the server's (64 KB
    /// unless scaling) for uploads, the device's (2–4 MB) for downloads.
    pub fn receiver_window(&self) -> u64 {
        match self.direction {
            Direction::Upload if self.server_window_scaling => SCALED_SERVER_WINDOW,
            Direction::Upload => MAX_WINDOW_NO_SCALING,
            Direction::Download => self.device.receive_window,
        }
    }

    /// Checks the flow parameters and its data link, mirroring the typed
    /// rejection contract of the storage constructors (R3: library code
    /// returns [`ConfigError`] instead of panicking).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.chunk_size == 0 {
            return Err(ConfigError::OutOfRange {
                what: "chunk size",
                requirement: "must be positive",
            });
        }
        if !(1..=MAX_FLOW_BYTES).contains(&self.total_bytes) {
            return Err(ConfigError::OutOfRange {
                what: "flow total bytes",
                requirement: "must lie in [1 B, 4 GiB]",
            });
        }
        if self.batch_chunks == 0 {
            return Err(ConfigError::ZeroCount {
                what: "chunks per batch",
            });
        }
        let Some(batch_bytes) = self.chunk_size.checked_mul(u64::from(self.batch_chunks)) else {
            return Err(ConfigError::OutOfRange {
                what: "batch size",
                requirement: "(chunk size × chunks per batch) must fit in u64",
            });
        };
        if self.total_bytes.div_ceil(batch_bytes) > MAX_BATCHES {
            return Err(ConfigError::OutOfRange {
                what: "batch count",
                requirement: "(total bytes ÷ batch size, rounded up) must be at most 2^20",
            });
        }
        self.data_link.validate()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Data segment of flow `f` arrives at its receiver.
    DataArrive {
        f: usize,
        seq_start: u64,
        seq_end: u64,
    },
    /// Cumulative ACK arrives at flow `f`'s sender, with SACK information:
    /// the start of the first out-of-order block (`u64::MAX` when none)
    /// and the total bytes the receiver holds above the cumulative ACK.
    AckArrive {
        f: usize,
        ack: u64,
        first_hole_end: u64,
        sacked: u64,
    },
    /// Application-level completion (HTTP 200 OK / next request) reaches
    /// flow `f`'s sender host for batch number `batch`; `delay_a` is the
    /// receiver-side processing it already absorbed.
    CtrlArrive {
        f: usize,
        batch: usize,
        delay_a: Time,
    },
    /// Sender-side processing after the control packet finished; the next
    /// batch may transmit. `app_idle` is the paper's idle definition:
    /// `T_srv + T_clt` (Fig. 11), excluding propagation.
    Unlock {
        f: usize,
        batch: usize,
        app_idle: Time,
    },
    /// Retransmission timer of flow `f`, live only while `epoch` is the
    /// flow's current one.
    RtoFire { f: usize, epoch: u64 },
    /// Pacing/emission timer releases flow `f`'s next segment.
    PacedSend { f: usize },
}

/// Runs one flow to completion on its own `data_link` and returns its
/// trace: the one-flow case of [`try_simulate_shared_report`], for
/// configurations known to be valid.
///
/// ```
/// use mcs_net::{simulate_flow, DeviceProfile, FlowConfig};
///
/// // Upload a 2 MB file from the paper's Android reference device.
/// let trace = simulate_flow(&FlowConfig::upload(DeviceProfile::android(), 2 << 20, 1));
/// assert!(!trace.aborted);
/// assert_eq!(trace.chunk_records.len(), 4); // 2 MB / 512 KB chunks
/// assert!(trace.goodput_bps() > 0.0);
/// ```
pub fn simulate_flow(cfg: &FlowConfig) -> FlowTrace {
    match try_simulate_shared_report(std::slice::from_ref(cfg), cfg.data_link, &Windows::empty()) {
        // One trace per input flow, so the pop cannot miss.
        Ok(mut report) => report.traces.pop().unwrap_or_default(),
        // mcs-lint: allow(panic, convenience wrapper; fallible path is try_simulate_shared_report)
        Err(e) => panic!("invalid flow config: {e}"),
    }
}

/// Everything a shared run produced: the per-flow traces plus the final
/// counter snapshot of the bottleneck link, so callers can check the
/// conservation invariant `offered == delivered + drops` without poking
/// at per-flow approximations.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedReport {
    /// Per-flow traces, in input order.
    pub traces: Vec<FlowTrace>,
    /// Final bottleneck-link counters (see [`LinkStats::conserves`]).
    pub link: LinkStats,
}

/// Runs several flows **sharing one bottleneck link** (and therefore
/// competing for its buffer and serialisation slots) to completion.
///
/// This is the faithful version of the §3.1.3 multi-connection scenario:
/// unlike independent per-flow simulation, the aggregate cannot exceed the
/// shared link rate, bursts from one flow can evict another flow's packets
/// from the drop-tail queue, and RTTs inflate with the shared backlog.
/// Each flow keeps its own device model and RNG stream; the
/// per-flow `data_link` configs are ignored in favour of `shared_link`.
///
/// `blackouts` are µs windows on the simulation clock: every packet
/// offered inside one is dropped, so an outage hits every flow at once and
/// the flows ride it out on TCP's own loss recovery. Rejects invalid flow
/// or link configurations with a typed [`ConfigError`] instead of
/// panicking (R3 contract).
pub fn try_simulate_shared_report(
    cfgs: &[FlowConfig],
    shared_link: LinkConfig,
    blackouts: &Windows,
) -> Result<SharedReport, ConfigError> {
    if cfgs.is_empty() {
        return Err(ConfigError::ZeroCount {
            what: "flows on the shared link",
        });
    }
    for c in cfgs {
        c.validate()?;
    }
    let mut link = Link::new(shared_link)?;
    link.set_blackouts(blackouts.clone());
    let (traces, stats, _steps) = run_flows(cfgs, link);
    Ok(SharedReport {
        traces,
        link: stats,
    })
}

/// Per-flow runtime state.
struct FlowRt {
    cfg: FlowConfig,
    rng: ChaCha8Rng,
    tcp: TcpSender,
    // Sender state.
    snd_una: u64,
    snd_nxt: u64,
    unlocked_end: u64,
    /// Bumped by every new-data ACK and every timeout. RTO only changes at
    /// those two points and time never runs backwards, so the first timer
    /// armed in an epoch is the only one of that epoch that can fire.
    rto_epoch: u64,
    /// The epoch whose timer has been armed.
    rto_armed: Option<u64>,
    /// Deadlines of this flow's queued `RtoFire` events, earliest first.
    rto_queued: VecDeque<Time>,
    /// The armed timer while it waits behind an earlier queued one: its
    /// deadline, epoch and the tie slot reserved when it was armed.
    rto_waiting: Option<(Time, u64, Ticket)>,
    rtx_cursor: u64,
    /// Unacknowledged sends ascending by `seq_end`:
    /// `(seq_end, send time, retransmitted)`.
    rtt_samples: VecDeque<(u64, Time, bool)>,
    emit_interval: Time,
    next_emit: Time,
    rcv_overhead: Time,
    rcv_busy: Time,
    pace_left: u32,
    pace_interval: Time,
    pace_next: Time,
    pace_armed: bool,
    // Receiver state.
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>, // seq_start -> seq_end
    /// Batches the receiver has completed.
    next_boundary_idx: usize,
    /// Bytes per batch, `chunk_size × batch_chunks`.
    batch_bytes: u64,
    /// Batches in the flow, `total_bytes ÷ batch_bytes` rounded up.
    batches: u32,
    // Idle accounting.
    last_data_send: Option<Time>,
    pending_idle: Option<PendingIdle>,
    trace: FlowTrace,
    done: bool,
}

struct PendingIdle {
    batch_index: usize,
    unlock_time: Time,
    app_idle: Time,
    restarted: bool,
}

impl FlowRt {
    fn new(cfg: &FlowConfig, flow_index: usize) -> Self {
        // The client stack is part of the bottleneck (the Fig. 13a slope
        // difference). Uploads: the client emits at most one segment per
        // `upload_packet_overhead`. Downloads: the client *processes* (and
        // therefore ACKs) at most one segment per `download_packet_overhead`,
        // throttling the ACK clock. Neither inflates measured RTT with a
        // phantom self-queue the way a link-rate clamp would.
        let (emit_interval, rcv_overhead) = match cfg.direction {
            Direction::Upload => (cfg.device.upload_packet_overhead, 0),
            Direction::Download => (0, cfg.device.download_packet_overhead),
        };
        // `validate` bounds both: the product fits a `u64`, the count 2^20.
        let batch_bytes = cfg.chunk_size.saturating_mul(u64::from(cfg.batch_chunks));
        let batches = u32::try_from(cfg.total_bytes.div_ceil(batch_bytes)).unwrap_or(u32::MAX);
        Self {
            cfg: *cfg,
            rng: stream_rng(cfg.seed, 0xF10 + flow_index as u64),
            tcp: TcpSender::new(cfg.receiver_window(), !cfg.disable_ssai),
            snd_una: 0,
            snd_nxt: 0,
            unlocked_end: batch_bytes.min(cfg.total_bytes),
            rto_epoch: 0,
            rto_armed: None,
            rto_queued: VecDeque::new(),
            rto_waiting: None,
            rtx_cursor: 0,
            rtt_samples: VecDeque::new(),
            emit_interval,
            next_emit: 0,
            rcv_overhead,
            rcv_busy: 0,
            pace_left: 0,
            pace_interval: 0,
            pace_next: 0,
            pace_armed: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            next_boundary_idx: 0,
            batch_bytes,
            batches,
            last_data_send: None,
            pending_idle: None,
            trace: FlowTrace::default(),
            done: false,
        }
    }

    /// End offset of batch `i`: `min((i + 1) × batch_bytes, total_bytes)`.
    fn batch_end(&self, i: usize) -> u64 {
        (i as u64 + 1)
            .saturating_mul(self.batch_bytes)
            .min(self.cfg.total_bytes)
    }

    /// Applies SSAI or pacing when the sender resumes after an idle gap.
    fn apply_idle_policy(&mut self, now: Time) -> Option<CwndEvent> {
        if self.cfg.pacing_after_idle {
            let idle = self
                .tcp
                .last_send()
                .map(|t| now.saturating_sub(t))
                .unwrap_or(0);
            if idle > self.tcp.rto() {
                // Keep cwnd, but pace one window's worth of segments over
                // roughly one SRTT to rebuild the ACK clock without a burst.
                let srtt = self.tcp.srtt().unwrap_or(100_000.0) as Time;
                let segs = u32::try_from((self.tcp.send_window() / crate::tcp::MSS).max(1))
                    .unwrap_or(u32::MAX);
                self.pace_left = segs;
                self.pace_interval = (srtt / segs as u64).max(200);
                self.pace_next = now;
                return None;
            }
            return None;
        }
        self.tcp.on_send_attempt(now)
    }

    /// Completes the idle record when the first segment after an unlock
    /// goes out.
    fn finish_idle_record(&mut self, now: Time) {
        if let Some(p) = self.pending_idle.take() {
            if p.batch_index == 0 {
                return; // connection start, not an inter-chunk idle
            }
            let idle = self
                .last_data_send
                .map(|t| now.saturating_sub(t))
                .unwrap_or(0);
            self.trace.idle_records.push(IdleRecord {
                before_batch: u32::try_from(p.batch_index).unwrap_or(u32::MAX),
                idle,
                app_idle: p.app_idle,
                rto: self.tcp.rto(),
                restarted: p.restarted,
                unlock_to_send: now.saturating_sub(p.unlock_time),
            });
        }
    }

    /// Karn's rule, conservatively: after any loss event, nothing currently
    /// outstanding may produce an RTT sample (a cumulative ACK covering an
    /// old segment long after its send time would poison SRTT/RTO).
    fn invalidate_rtt_samples(&mut self) {
        for v in &mut self.rtt_samples {
            v.2 = true;
        }
    }

    fn record_send_samples(&mut self, now: Time) {
        self.trace.seq_samples.push((now, self.snd_nxt));
        self.trace
            .inflight_samples
            .push((now, self.snd_nxt - self.snd_una));
    }
}

/// The event handler: any number of flows over one shared link, driven by
/// an `mcs-sim` event queue. Every event names its flow.
struct Engine {
    link: Link,
    flows: Vec<FlowRt>,
    done_count: usize,
    /// Event budget guarding against pathological configurations; real
    /// flows finish far below it.
    budget: u64,
}

/// Builds the event queue, seeds each flow's initial sends and runs
/// the simulation until every flow finishes (or the budget trips).
/// Returns the traces, the link counters and the events dispatched.
fn run_flows(cfgs: &[FlowConfig], link: Link) -> (Vec<FlowTrace>, LinkStats, u64) {
    let mut q = EventQueue::new();
    let mut eng = Engine::start(cfgs, link, &mut q);
    let steps = eng.run(&mut q);
    let now = q.now();
    let single = eng.flows.len() == 1;
    for fl in &mut eng.flows {
        if fl.trace.duration == 0 {
            fl.trace.duration = now.max(1);
        }
        fl.trace.idle_restarts = fl.tcp.idle_restarts();
        if single {
            // A lone flow owns the link, so the global drop counters
            // are attributable to it; shared runs keep the per-flow
            // `data_drops` counter instead.
            fl.trace.buffer_drops = eng.link.buffer_drops;
            fl.trace.random_drops = eng.link.random_drops;
            fl.trace.blackout_drops = eng.link.blackout_drops;
        }
    }
    let stats = eng.link.stats();
    let traces = eng.flows.into_iter().map(|fl| fl.trace).collect();
    (traces, stats, steps)
}

impl Engine {
    /// Seeds each flow's initial sends on `q` and sets the event budget.
    fn start(cfgs: &[FlowConfig], link: Link, q: &mut EventQueue<Ev>) -> Self {
        let mut eng = Engine {
            link,
            flows: cfgs
                .iter()
                .enumerate()
                .map(|(i, c)| FlowRt::new(c, i))
                .collect(),
            done_count: 0,
            budget: 0,
        };
        let mut total_bytes = 0u64;
        for f in 0..eng.flows.len() {
            let fl = &mut eng.flows[f];
            fl.trace.total_bytes = fl.cfg.total_bytes;
            fl.trace.chunk_size = fl.cfg.chunk_size;
            fl.trace.batches = fl.batches;
            fl.pending_idle = Some(PendingIdle {
                batch_index: 0,
                unlock_time: 0,
                app_idle: 0,
                restarted: false,
            });
            total_bytes = total_bytes.saturating_add(fl.cfg.total_bytes);
            eng.try_send(q, f);
        }
        eng.budget = 400 * eng.flows.len() as u64 + 40 * (total_bytes / crate::tcp::MSS + 2) * 2;
        eng
    }

    /// Pops and handles events until every flow finishes, the budget trips
    /// or the queue drains, and returns the events dispatched.
    fn run(&mut self, q: &mut EventQueue<Ev>) -> u64 {
        let mut steps = 0;
        while let Some((now, ev)) = q.pop() {
            steps += 1;
            if !self.handle(q, now, ev, steps) {
                break;
            }
        }
        steps
    }

    /// Handles `ev`, the run's `steps`-th event, popped at `now`. Returns
    /// whether the run goes on: past the event budget every unfinished
    /// flow is marked aborted and the event is dropped, and once every
    /// flow has finished the remaining events are left queued.
    fn handle(&mut self, q: &mut EventQueue<Ev>, now: Time, ev: Ev, steps: u64) -> bool {
        if steps > self.budget {
            for fl in &mut self.flows {
                if !fl.done {
                    fl.trace.aborted = true;
                }
            }
            return false;
        }
        match ev {
            Ev::DataArrive {
                f,
                seq_start,
                seq_end,
            } => self.on_data(q, f, now, seq_start, seq_end),
            Ev::AckArrive {
                f,
                ack,
                first_hole_end,
                sacked,
            } => self.on_ack(q, f, now, ack, first_hole_end, sacked),
            Ev::CtrlArrive { f, batch, delay_a } => {
                let fl = &mut self.flows[f];
                let delay_b = match fl.cfg.direction {
                    Direction::Upload => fl.cfg.device.sample_clt(Direction::Upload, &mut fl.rng),
                    Direction::Download => sample_srv(&mut fl.rng),
                };
                q.schedule_in(
                    delay_b,
                    Ev::Unlock {
                        f,
                        batch,
                        app_idle: delay_a.saturating_add(delay_b),
                    },
                );
            }
            Ev::Unlock { f, batch, app_idle } => self.on_unlock(q, f, now, batch, app_idle),
            Ev::RtoFire { f, epoch } => {
                self.flows[f].rto_queued.pop_front();
                self.on_rto(q, f, now, epoch);
                self.queue_waiting_rto(q, f);
            }
            Ev::PacedSend { f } => {
                self.flows[f].pace_armed = false;
                self.try_send(q, f);
            }
        }
        self.done_count < self.flows.len()
    }

    /// Sends as much new data of flow `f` as windows (and pacing) allow.
    fn try_send(&mut self, q: &mut EventQueue<Ev>, f: usize) {
        loop {
            let now = q.now();
            let fl = &self.flows[f];
            if fl.snd_nxt >= fl.unlocked_end {
                return;
            }
            let inflight = fl.snd_nxt - fl.snd_una;
            let avail = fl.tcp.available_window(inflight);
            if avail < 1 {
                return;
            }
            let mut earliest = fl.next_emit;
            if fl.pace_left > 0 {
                earliest = earliest.max(fl.pace_next);
            }
            if earliest > now {
                if !fl.pace_armed {
                    self.flows[f].pace_armed = true;
                    q.schedule(earliest, Ev::PacedSend { f });
                }
                return;
            }
            let bytes = crate::tcp::MSS
                .min(fl.unlocked_end - fl.snd_nxt)
                .min(avail.max(1));
            let seq_start = fl.snd_nxt;
            let seq_end = seq_start + bytes;
            self.send_segment(q, f, now, seq_start, seq_end, false);
            let fl = &mut self.flows[f];
            fl.snd_nxt = seq_end;
            if fl.pace_left > 0 {
                fl.pace_left -= 1;
                fl.pace_next = now.max(fl.pace_next).saturating_add(fl.pace_interval);
            }
            fl.record_send_samples(now);
        }
    }

    /// Puts one segment of flow `f` on the wire (fresh or retransmission).
    fn send_segment(
        &mut self,
        q: &mut EventQueue<Ev>,
        f: usize,
        now: Time,
        seq_start: u64,
        seq_end: u64,
        retransmit: bool,
    ) {
        let fl = &mut self.flows[f];
        // First data after an idle period: the RFC 5681 idle check.
        if !retransmit {
            if let Some(ev) = fl.apply_idle_policy(now) {
                if ev == CwndEvent::IdleRestart {
                    if let Some(p) = &mut fl.pending_idle {
                        p.restarted = true;
                    }
                }
            }
            fl.finish_idle_record(now);
        }
        let bytes = seq_end - seq_start;
        match self.link.transmit(now, bytes, &mut fl.rng) {
            Transmit::Arrive(at) => {
                q.schedule(
                    at.max(now),
                    Ev::DataArrive {
                        f,
                        seq_start,
                        seq_end,
                    },
                );
            }
            Transmit::Drop => {
                fl.trace.data_drops += 1;
            }
        }
        fl.tcp.register_send(now);
        fl.next_emit = now.saturating_add(fl.emit_interval);
        fl.last_data_send = Some(now);
        // Fresh data always ends past every recorded send; a retransmit
        // either re-marks its segment or records a new boundary.
        if !retransmit {
            fl.rtt_samples.push_back((seq_end, now, false));
        } else {
            match fl.rtt_samples.binary_search_by_key(&seq_end, |e| e.0) {
                Ok(i) => fl.rtt_samples[i].2 = true,
                Err(i) => fl.rtt_samples.insert(i, (seq_end, now, true)),
            }
        }
        if fl.snd_nxt > fl.snd_una || seq_end > fl.snd_una {
            self.arm_rto(q, f, now);
        }
    }

    /// Arms flow `f`'s retransmission timer for the current epoch, once:
    /// the deadline is `now + RTO`, and the tie slot is reserved now, where
    /// the timer would sit had it been queued at once.
    fn arm_rto(&mut self, q: &mut EventQueue<Ev>, f: usize, now: Time) {
        let fl = &mut self.flows[f];
        if fl.rto_armed == Some(fl.rto_epoch) {
            return;
        }
        fl.rto_armed = Some(fl.rto_epoch);
        let at = now.saturating_add(fl.tcp.rto());
        fl.rto_waiting = Some((at, fl.rto_epoch, q.reserve()));
        self.queue_waiting_rto(q, f);
    }

    /// Queues flow `f`'s waiting timer unless an earlier `RtoFire` of the
    /// flow is queued already: that one pops first and calls back here,
    /// so a flow keeps one timer in the queue instead of one per send.
    fn queue_waiting_rto(&mut self, q: &mut EventQueue<Ev>, f: usize) {
        let fl = &mut self.flows[f];
        let Some((at, epoch, ticket)) = fl.rto_waiting.take() else {
            return;
        };
        if epoch != fl.rto_epoch || fl.done {
            return; // its epoch ended, so it could never fire
        }
        if fl.rto_queued.front().is_some_and(|&q| q <= at) {
            fl.rto_waiting = Some((at, epoch, ticket));
            return;
        }
        fl.rto_queued.push_front(at);
        q.schedule_reserved(at, ticket, Ev::RtoFire { f, epoch });
    }

    fn on_data(
        &mut self,
        q: &mut EventQueue<Ev>,
        f: usize,
        now: Time,
        seq_start: u64,
        seq_end: u64,
    ) {
        let fl = &mut self.flows[f];
        // Reassembly.
        if seq_end > fl.rcv_nxt {
            if seq_start <= fl.rcv_nxt {
                fl.rcv_nxt = seq_end;
                // Pull contiguous out-of-order segments.
                while let Some((&s, &e)) = fl.ooo.iter().next() {
                    if s > fl.rcv_nxt {
                        break;
                    }
                    fl.rcv_nxt = fl.rcv_nxt.max(e);
                    fl.ooo.remove(&s);
                }
            } else {
                fl.ooo.insert(seq_start, seq_end);
            }
        }
        // A slow receiver stack (Android downloads) processes packets
        // sequentially, so its ACKs fall behind when data arrives faster
        // than it can handle — throttling the sender's ACK clock.
        let processed_at = now.max(fl.rcv_busy).saturating_add(fl.rcv_overhead);
        fl.rcv_busy = processed_at;
        // Every segment is acknowledged as soon as it is processed.
        self.flush_ack_at(q, f, processed_at);

        // Application-level completion of the current batch.
        let fl = &mut self.flows[f];
        let ack_delay = fl.cfg.ack_delay;
        while fl.next_boundary_idx < fl.batches as usize
            && fl.rcv_nxt >= fl.batch_end(fl.next_boundary_idx)
        {
            let batch = fl.next_boundary_idx;
            fl.next_boundary_idx += 1;
            let delay_a = match fl.cfg.direction {
                Direction::Upload => sample_srv(&mut fl.rng),
                Direction::Download => fl.cfg.device.sample_clt(Direction::Download, &mut fl.rng),
            };
            q.schedule(
                processed_at
                    .saturating_add(delay_a)
                    .saturating_add(ack_delay),
                Ev::CtrlArrive { f, batch, delay_a },
            );
        }
    }

    /// Emits the receiver's current cumulative ACK (with SACK info) once
    /// its processing completes at `processed_at`.
    fn flush_ack_at(&mut self, q: &mut EventQueue<Ev>, f: usize, processed_at: Time) {
        let fl = &self.flows[f];
        let ack = fl.rcv_nxt;
        let first_hole_end = fl.ooo.keys().next().copied().unwrap_or(u64::MAX);
        let sacked: u64 = fl.ooo.iter().map(|(&s, &e)| e - s).sum();
        let ack_delay = fl.cfg.ack_delay;
        q.schedule(
            processed_at.saturating_add(ack_delay),
            Ev::AckArrive {
                f,
                ack,
                first_hole_end,
                sacked,
            },
        );
    }

    fn on_ack(
        &mut self,
        q: &mut EventQueue<Ev>,
        f: usize,
        now: Time,
        ack: u64,
        first_hole_end: u64,
        sacked: u64,
    ) {
        let fl = &mut self.flows[f];
        let newly = ack.saturating_sub(fl.snd_una);
        // RTT sample per Karn: from the newest never-retransmitted segment
        // covered by this ACK.
        let mut sample = None;
        if newly > 0 {
            while let Some(&(_, t, retx)) = fl.rtt_samples.front().filter(|e| e.0 <= ack) {
                fl.rtt_samples.pop_front();
                if !retx {
                    sample = Some(now.saturating_sub(t));
                }
            }
        }
        let ev = fl.tcp.on_ack(ack, newly, sample);
        let mut arm_fresh = false;
        if newly > 0 {
            fl.snd_una = ack;
            fl.rto_epoch += 1;
            if fl.snd_nxt > fl.snd_una {
                arm_fresh = true;
            }
        }
        if ev == Some(CwndEvent::FastRetransmit) {
            fl.tcp.set_recover_point(fl.snd_nxt);
            fl.trace.fast_retransmits += 1;
            fl.invalidate_rtt_samples();
        }
        if arm_fresh {
            self.arm_rto(q, f, now);
        }
        // SACK-style hole repair: whenever the receiver reports a gap,
        // retransmit missing bytes up to the congestion budget. Without
        // this, a burst loss of N segments recovers one segment per
        // RTT/RTO (pre-SACK NewReno) and large-window flows starve.
        if first_hole_end != u64::MAX && first_hole_end > ack && self.flows[f].snd_nxt > ack {
            self.retransmit_holes(q, f, now, ack, first_hole_end, sacked);
        }
        let fl = &mut self.flows[f];
        fl.trace
            .inflight_samples
            .push((now, fl.snd_nxt - fl.snd_una));
        self.try_send(q, f);
    }

    /// Retransmits bytes of the hole `[ack, first_hole_end)` subject to the
    /// available congestion budget, tracked by a monotone cursor so the
    /// same bytes are not re-sent on every duplicate ACK.
    fn retransmit_holes(
        &mut self,
        q: &mut EventQueue<Ev>,
        f: usize,
        now: Time,
        ack: u64,
        first_hole_end: u64,
        sacked: u64,
    ) {
        let fl = &self.flows[f];
        let pipe = (fl.snd_nxt - ack).saturating_sub(sacked);
        // Burst-cap the repair: spreading retransmissions across ACK events
        // keeps a large hole from instantly re-overflowing the very buffer
        // that dropped it.
        let mut budget = fl
            .tcp
            .send_window()
            .saturating_sub(pipe)
            .min(4 * crate::tcp::MSS);
        let mut cursor = fl.rtx_cursor.max(ack);
        let hole_end = first_hole_end.min(fl.snd_nxt);
        while budget > 0 && cursor < hole_end {
            let end = (cursor + crate::tcp::MSS).min(hole_end);
            self.send_segment(q, f, now, cursor, end, true);
            budget = budget.saturating_sub(end - cursor);
            cursor = end;
        }
        self.flows[f].rtx_cursor = cursor;
    }

    fn on_unlock(
        &mut self,
        q: &mut EventQueue<Ev>,
        f: usize,
        now: Time,
        batch_index: usize,
        app_idle: Time,
    ) {
        let fl = &mut self.flows[f];
        let batch_end = fl.batch_end(batch_index);
        // Sender has learned the batch completed end-to-end.
        fl.trace.chunk_records.push(ChunkRecord {
            index: u32::try_from(batch_index).unwrap_or(u32::MAX),
            bytes: batch_end
                - if batch_index == 0 {
                    0
                } else {
                    fl.batch_end(batch_index - 1)
                },
            completed_at: now,
        });
        if batch_end >= fl.cfg.total_bytes {
            fl.done = true;
            fl.trace.duration = now.max(1);
            self.done_count += 1;
            return;
        }
        fl.unlocked_end = fl.batch_end(batch_index + 1);
        fl.pending_idle = Some(PendingIdle {
            batch_index: batch_index + 1,
            unlock_time: now,
            app_idle,
            restarted: false,
        });
        self.try_send(q, f);
    }

    fn on_rto(&mut self, q: &mut EventQueue<Ev>, f: usize, now: Time, epoch: u64) {
        let fl = &mut self.flows[f];
        if epoch != fl.rto_epoch || fl.snd_nxt <= fl.snd_una || fl.done {
            return; // stale timer
        }
        fl.tcp.on_timeout();
        fl.trace.timeouts += 1;
        fl.rto_epoch += 1;
        fl.invalidate_rtt_samples();
        // Earlier hole repairs may themselves have been lost — walk the
        // hole again from the cumulative ACK.
        let (una, nxt) = (fl.snd_una, fl.snd_nxt);
        let end = (una + crate::tcp::MSS).min(nxt);
        self.send_segment(q, f, now, una, end, true);
        self.flows[f].rtx_cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::{MS, SEC};

    /// One flow on its own data link under `blackouts`.
    fn flow_with_blackouts(cfg: &FlowConfig, blackouts: &Windows) -> FlowTrace {
        let report =
            try_simulate_shared_report(std::slice::from_ref(cfg), cfg.data_link, blackouts)
                .unwrap();
        report.traces.into_iter().next().unwrap()
    }

    fn shared(cfgs: &[FlowConfig], link: LinkConfig) -> Vec<FlowTrace> {
        try_simulate_shared_report(cfgs, link, &Windows::empty())
            .unwrap()
            .traces
    }

    fn quiet_link() -> LinkConfig {
        LinkConfig {
            rate_bps: 40_000_000,
            delay: 50 * MS,
            buffer_bytes: 512 * 1024,
            ..LinkConfig::default()
        }
    }

    fn upload(device: DeviceProfile, bytes: u64, seed: u64) -> FlowConfig {
        FlowConfig {
            data_link: quiet_link(),
            ..FlowConfig::upload(device, bytes, seed)
        }
    }

    #[test]
    fn single_chunk_completes() {
        let t = simulate_flow(&upload(DeviceProfile::ios(), 512 * 1024, 1));
        assert!(!t.aborted);
        assert_eq!(t.chunk_records.len(), 1);
        assert_eq!(t.chunk_records[0].bytes, 512 * 1024);
        assert!(t.duration > 0);
        assert_eq!(t.data_drops, 0);
        assert_eq!(t.timeouts, 0);
    }

    #[test]
    fn multi_chunk_flow_has_idle_records() {
        let t = simulate_flow(&upload(DeviceProfile::android(), 4 * 512 * 1024, 2));
        assert!(!t.aborted);
        assert_eq!(t.chunk_records.len(), 4);
        assert_eq!(t.idle_records.len(), 3, "one idle per inter-chunk gap");
        for r in &t.idle_records {
            assert!(r.idle > 0);
            assert!(r.rto > 0);
        }
    }

    #[test]
    fn android_restarts_more_than_ios() {
        let mut android_restarts = 0u64;
        let mut ios_restarts = 0u64;
        let mut android_idles = 0u64;
        for seed in 0..30 {
            let a = simulate_flow(&upload(DeviceProfile::android(), 8 * 512 * 1024, seed));
            let i = simulate_flow(&upload(DeviceProfile::ios(), 8 * 512 * 1024, seed + 1000));
            android_restarts += a.idle_restarts;
            ios_restarts += i.idle_restarts;
            android_idles += a.idle_records.len() as u64;
        }
        assert!(android_idles > 0);
        assert!(
            android_restarts > ios_restarts,
            "android {android_restarts} vs ios {ios_restarts}"
        );
    }

    #[test]
    fn ssai_restart_slows_transfer() {
        // Same seed, same device: SSAI on vs off.
        let on = simulate_flow(&upload(DeviceProfile::android(), 16 * 512 * 1024, 7));
        let off = simulate_flow(&FlowConfig {
            disable_ssai: true,
            ..upload(DeviceProfile::android(), 16 * 512 * 1024, 7)
        });
        assert!(on.idle_restarts > 0, "SSAI flow must restart at least once");
        assert_eq!(off.idle_restarts, 0);
        assert!(
            off.duration < on.duration,
            "no-SSAI {} vs SSAI {}",
            off.duration,
            on.duration
        );
    }

    #[test]
    fn blackout_flow_recovers_and_completes() {
        // A 300 ms mid-flow blackout: every packet offered inside the
        // window is lost, TCP retransmits its way out, and the flow still
        // delivers every byte — just later and with drops on the books.
        let cfg = upload(DeviceProfile::ios(), 8 * 512 * 1024, 11);
        let fair = simulate_flow(&cfg);
        let out = Windows::new(vec![(2 * SEC, 2 * SEC + 300 * MS)]);
        let dark = flow_with_blackouts(&cfg, &out);
        assert!(!dark.aborted);
        let delivered: u64 = dark.chunk_records.iter().map(|c| c.bytes).sum();
        assert_eq!(delivered, 8 * 512 * 1024, "every byte still arrives");
        assert!(dark.blackout_drops > 0, "the window must have hit traffic");
        assert!(
            dark.duration > fair.duration,
            "blackout {} vs fair {}",
            dark.duration,
            fair.duration
        );
        assert_eq!(fair.blackout_drops, 0);
    }

    #[test]
    fn blackout_runs_are_deterministic() {
        let cfg = upload(DeviceProfile::android(), 4 * 512 * 1024, 23);
        let out = Windows::new(vec![(SEC, SEC + 200 * MS), (3 * SEC, 3 * SEC + 100 * MS)]);
        let a = flow_with_blackouts(&cfg, &out);
        let b = flow_with_blackouts(&cfg, &out);
        assert_eq!(a, b, "same seed + same plan must be bit-identical");
    }

    #[test]
    fn upload_throughput_window_bound() {
        // Long single batch (no idles): throughput ≈ rwnd / RTT.
        let cfg = FlowConfig {
            batch_chunks: 64,
            ..upload(DeviceProfile::ios(), 16 * 512 * 1024, 3)
        };
        let t = simulate_flow(&cfg);
        assert!(!t.aborted);
        let secs = t.duration as f64 / SEC as f64;
        let thpt = t.total_bytes as f64 / secs;
        // rwnd/RTT = 65535 B / ~0.1 s ≈ 640 KB/s (stack overheads shave a
        // little).
        assert!(
            (300_000.0..800_000.0).contains(&thpt),
            "throughput {thpt} B/s"
        );
    }

    #[test]
    fn download_not_window_bound() {
        // Client advertises MBs: throughput approaches the link rate.
        let cfg = FlowConfig {
            batch_chunks: 64,
            ..FlowConfig {
                data_link: quiet_link(),
                ..FlowConfig::download(DeviceProfile::ios(), 16 * 512 * 1024, 4)
            }
        };
        let t = simulate_flow(&cfg);
        let secs = t.duration as f64 / SEC as f64;
        let thpt = t.total_bytes as f64 / secs;
        assert!(thpt > 1_500_000.0, "download throughput {thpt} B/s");
    }

    #[test]
    fn window_scaling_unlocks_upload() {
        let base = upload(DeviceProfile::ios(), 8 * 512 * 1024, 5);
        let slow = simulate_flow(&FlowConfig {
            batch_chunks: 16,
            ..base
        });
        let fast = simulate_flow(&FlowConfig {
            batch_chunks: 16,
            server_window_scaling: true,
            ..base
        });
        assert!(
            fast.duration < slow.duration * 2 / 3,
            "scaled {} vs clamped {}",
            fast.duration,
            slow.duration
        );
    }

    #[test]
    fn batching_removes_idles() {
        let single = simulate_flow(&upload(DeviceProfile::android(), 8 * 512 * 1024, 6));
        let batched = simulate_flow(&FlowConfig {
            batch_chunks: 8,
            ..upload(DeviceProfile::android(), 8 * 512 * 1024, 6)
        });
        assert_eq!(single.idle_records.len(), 7);
        assert!(batched.idle_records.is_empty());
        assert!(batched.duration < single.duration);
    }

    #[test]
    fn larger_chunks_reduce_idles() {
        let small = simulate_flow(&upload(DeviceProfile::android(), 4 * 1024 * 1024, 8));
        let large = simulate_flow(&FlowConfig {
            chunk_size: 2 * 1024 * 1024,
            ..upload(DeviceProfile::android(), 4 * 1024 * 1024, 8)
        });
        assert!(large.idle_records.len() < small.idle_records.len());
        assert!(large.duration < small.duration);
    }

    #[test]
    fn pacing_beats_restart() {
        let restart = simulate_flow(&upload(DeviceProfile::android(), 16 * 512 * 1024, 9));
        let paced = simulate_flow(&FlowConfig {
            pacing_after_idle: true,
            ..upload(DeviceProfile::android(), 16 * 512 * 1024, 9)
        });
        assert_eq!(paced.idle_restarts, 0);
        assert!(
            paced.duration < restart.duration,
            "paced {} vs restart {}",
            paced.duration,
            restart.duration
        );
    }

    #[test]
    fn lossy_link_recovers_and_completes() {
        let cfg = FlowConfig {
            data_link: LinkConfig {
                loss_prob: 0.02,
                ..quiet_link()
            },
            ..upload(DeviceProfile::ios(), 8 * 512 * 1024, 10)
        };
        let t = simulate_flow(&cfg);
        assert!(!t.aborted, "flow must complete despite loss");
        assert_eq!(t.chunk_records.len(), 8);
        assert!(t.random_drops > 0);
        assert!(t.fast_retransmits + t.timeouts > 0);
    }

    #[test]
    fn deterministic() {
        let a = simulate_flow(&upload(DeviceProfile::android(), 4 * 512 * 1024, 42));
        let b = simulate_flow(&upload(DeviceProfile::android(), 4 * 512 * 1024, 42));
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.idle_restarts, b.idle_restarts);
        assert_eq!(a.seq_samples, b.seq_samples);
    }

    #[test]
    fn seq_trace_monotone() {
        let t = simulate_flow(&upload(DeviceProfile::ios(), 4 * 512 * 1024, 11));
        for w in t.seq_samples.windows(2) {
            assert!(w[0].0 <= w[1].0, "time ordered");
            assert!(w[0].1 <= w[1].1, "sequence never decreases");
        }
        assert_eq!(t.seq_samples.last().unwrap().1, 4 * 512 * 1024);
    }

    #[test]
    fn shared_bottleneck_two_flows_complete() {
        let cfgs = [
            upload(DeviceProfile::ios(), 4 * 512 * 1024, 70),
            upload(DeviceProfile::android(), 4 * 512 * 1024, 71),
        ];
        let traces = shared(&cfgs, quiet_link());
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert!(!t.aborted);
            let delivered: u64 = t.chunk_records.iter().map(|c| c.bytes).sum();
            assert_eq!(delivered, 4 * 512 * 1024);
        }
        // Both finish; iOS finishes first (faster client).
        assert!(traces[0].duration < traces[1].duration);
    }

    #[test]
    fn shared_bottleneck_slows_flows_vs_isolation() {
        // Two window-bound iOS uploads on a *narrow* shared link take
        // longer than either would alone on that link.
        let narrow = LinkConfig {
            rate_bps: 1_500_000, // 187 KB/s: two flows must share
            ..quiet_link()
        };
        let alone = simulate_flow(&FlowConfig {
            data_link: narrow,
            ..upload(DeviceProfile::ios(), 4 * 512 * 1024, 80)
        });
        let cfgs = [
            upload(DeviceProfile::ios(), 4 * 512 * 1024, 80),
            upload(DeviceProfile::ios(), 4 * 512 * 1024, 81),
        ];
        let traces = shared(&cfgs, narrow);
        let slowest = traces.iter().map(|t| t.duration).max().unwrap();
        assert!(
            slowest > alone.duration * 14 / 10,
            "sharing {} vs alone {}",
            slowest,
            alone.duration
        );
    }

    #[test]
    fn shared_parallel_upload_beats_single_connection() {
        // The §3.1.3 scenario with honest contention: 4 connections
        // splitting a 8 MB upload on the default (ample) link still beat
        // one 64 KB-clamped connection.
        let total = 8u64 << 20;
        let one = simulate_flow(&FlowConfig {
            batch_chunks: 16,
            ..upload(DeviceProfile::ios(), total, 90)
        });
        let share = total / 4;
        let cfgs: Vec<FlowConfig> = (0..4)
            .map(|i| FlowConfig {
                batch_chunks: 16,
                ..upload(DeviceProfile::ios(), share, 91 + i)
            })
            .collect();
        let traces = shared(&cfgs, quiet_link());
        let slowest = traces.iter().map(|t| t.duration).max().unwrap();
        assert!(
            slowest * 2 < one.duration,
            "4 shared conns {} vs 1 conn {}",
            slowest,
            one.duration
        );
    }

    #[test]
    fn shared_deterministic() {
        let cfgs = [
            upload(DeviceProfile::ios(), 2 * 512 * 1024, 100),
            upload(DeviceProfile::android(), 2 * 512 * 1024, 101),
        ];
        let a = shared(&cfgs, quiet_link());
        let b = shared(&cfgs, quiet_link());
        assert_eq!(a, b);
    }

    /// FNV-1a over formatted output, fed without building the string.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }

    /// Digest of every `FlowTrace` field (and, for shared runs, the link
    /// counters) over a grid of presets, devices, sizes, directions and
    /// protocol variants, with blackouts on every fifth cell and 2/4/6-flow
    /// shared bottlenecks. Pins the engine's outputs bit for bit: a change
    /// to event order, timer handling or RTT sampling moves it.
    #[test]
    fn golden_digest_over_the_variant_grid() {
        use crate::profile::LinkProfile;
        use std::fmt::Write;
        let variants: [fn(FlowConfig) -> FlowConfig; 7] = [
            |c| c,
            |c| FlowConfig {
                disable_ssai: true,
                ..c
            },
            |c| FlowConfig {
                pacing_after_idle: true,
                ..c
            },
            |c| FlowConfig {
                server_window_scaling: true,
                ..c
            },
            |c| FlowConfig {
                batch_chunks: 4,
                ..c
            },
            |c| FlowConfig {
                chunk_size: 2 << 20,
                ..c
            },
            |c| FlowConfig {
                data_link: LinkConfig {
                    loss_prob: 0.03,
                    buffer_bytes: 64 << 10,
                    ..c.data_link
                },
                ..c
            },
        ];
        let blackouts = Windows::new(vec![(SEC, SEC + 300 * MS), (3 * SEC, 3 * SEC + 100 * MS)]);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut cell = 0u64;
        for profile in LinkProfile::presets() {
            for device in [DeviceProfile::android(), DeviceProfile::ios()] {
                for size in [512 << 10, 2 << 20, 10 << 20] {
                    for upload in [true, false] {
                        for variant in &variants {
                            let cfg = variant(if upload {
                                FlowConfig::upload_via(&profile, device, size, cell)
                            } else {
                                FlowConfig::download_via(&profile, device, size, cell)
                            });
                            let out = if cell.is_multiple_of(5) {
                                &blackouts
                            } else {
                                &Windows::empty()
                            };
                            let t = flow_with_blackouts(&cfg, out);
                            assert!(!t.aborted, "cell {cell} aborted");
                            write!(h, "{t:?}").unwrap();
                            cell += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cell, 336);
        for n in [2u64, 4, 6] {
            for profile in LinkProfile::presets() {
                let link = profile.median_link();
                let cfgs: Vec<FlowConfig> = (0..n)
                    .map(|i| {
                        let device = if i % 2 == 0 {
                            DeviceProfile::ios()
                        } else {
                            DeviceProfile::android()
                        };
                        let base = if i % 3 == 2 {
                            FlowConfig::download(device, 2 << 20, 500 + 10 * n + i)
                        } else {
                            FlowConfig::upload(device, 2 << 20, 500 + 10 * n + i)
                        };
                        FlowConfig {
                            data_link: link,
                            ack_delay: link.delay,
                            ..base
                        }
                    })
                    .collect();
                let report = try_simulate_shared_report(&cfgs, link, &Windows::empty()).unwrap();
                assert!(report.link.conserves());
                assert!(report.traces.iter().all(|t| !t.aborted));
                write!(h, "{report:?}").unwrap();
            }
        }
        assert_eq!(h.0, GOLDEN_DIGEST, "digest {:#018x}", h.0);
    }

    /// [`golden_digest_over_the_variant_grid`]'s digest. The same grid
    /// gave this value on the engine that still had a delayed-ACK mode, so
    /// removing that mode moved no output.
    const GOLDEN_DIGEST: u64 = 0x56fb_55a2_e216_078b;

    #[test]
    fn waiting_timer_dispatches_in_the_slot_it_was_armed_in() {
        // The initial window is delivered, then a blackout swallows every
        // later segment, so the ACKs stop and the last epoch's timer is
        // live. It waits behind the first epoch's (earlier) timer, and a
        // new-data ACK is made to land on its deadline: after a nudge
        // event, once the timer was armed and before it is queued. Armed
        // first, the timer must fire first, as a timer queued on arming
        // would have; a fresh slot taken when it is queued would let the
        // ACK win. The injected ACK leaves the flow unable to finish, so
        // the event budget ends the run.
        let cfg = upload(DeviceProfile::ios(), 2 << 20, 3);
        let mut link = Link::new(cfg.data_link).unwrap();
        link.set_blackouts(Windows::new(vec![(50 * MS, 5 * SEC)]));
        let mut q = EventQueue::new();
        let mut eng = Engine::start(std::slice::from_ref(&cfg), link, &mut q);
        let nudge = 200 * MS;
        q.schedule(nudge, Ev::PacedSend { f: 0 });
        let mut tie = None;
        let mut at_tie = Vec::new();
        let mut steps = 0;
        while let Some((now, ev)) = q.pop() {
            steps += 1;
            if Some(now) == tie {
                at_tie.push(match ev {
                    Ev::RtoFire { .. } => "rto",
                    Ev::AckArrive { .. } => "ack",
                    _ => "other",
                });
            }
            let nudged = now == nudge && matches!(ev, Ev::PacedSend { .. });
            let go_on = eng.handle(&mut q, now, ev, steps);
            if nudged {
                let fl = &eng.flows[0];
                let (at, _, _) = fl.rto_waiting.as_ref().expect("a waiting timer");
                assert!(
                    fl.rto_queued.front().is_some_and(|q| q <= at),
                    "the timer waits behind an earlier queued one"
                );
                let ack = fl.snd_una + crate::tcp::MSS;
                assert!(ack <= fl.snd_nxt, "the injected ACK covers new data");
                q.schedule(
                    *at,
                    Ev::AckArrive {
                        f: 0,
                        ack,
                        first_hole_end: u64::MAX,
                        sacked: 0,
                    },
                );
                tie = Some(*at);
            }
            if !go_on {
                break;
            }
        }
        assert!(tie.is_some_and(|t| t > nudge));
        assert_eq!(at_tie, ["rto", "ack"]);
    }

    #[test]
    fn event_budget_aborts_unfinished_flows_and_stops_the_run() {
        let cfg = upload(DeviceProfile::ios(), 2 << 20, 3);
        let link = Link::new(cfg.data_link).unwrap();
        let mut q = EventQueue::new();
        let mut eng = Engine::start(std::slice::from_ref(&cfg), link, &mut q);
        eng.budget = 20;
        assert_eq!(eng.run(&mut q), 21, "the event past the budget ends it");
        assert!(eng.flows[0].trace.aborted);
        assert!(!eng.flows[0].done);
        assert!(!q.is_empty(), "the remaining events stay queued");
    }

    #[test]
    fn baseline_flows_dispatch_few_events_per_segment() {
        // A data arrival and an ACK per segment (plus, on uploads, the
        // device's per-segment emission timer), a few control events per
        // chunk and one live retransmission timer per flow. Queuing a timer
        // on every send and every new-data ACK costs two more per segment
        // (5.0 and 4.15 here).
        let android = DeviceProfile::android();
        for (cfg, bound) in [
            (FlowConfig::upload(android, 8 << 20, 5), 3.25),
            (FlowConfig::download(android, 8 << 20, 5), 2.25),
        ] {
            let link = Link::new(cfg.data_link).unwrap();
            let (traces, _, steps) = run_flows(std::slice::from_ref(&cfg), link);
            assert!(!traces[0].aborted);
            let per = steps as f64 / traces[0].seq_samples.len() as f64;
            assert!(
                per < bound,
                "{:?}: {per:.2} events per segment",
                cfg.direction
            );
        }
    }

    #[test]
    fn invalid_flows_are_typed_errors() {
        let ok = upload(DeviceProfile::ios(), 512 * 1024, 1);
        let link = quiet_link();
        let too_big = ConfigError::OutOfRange {
            what: "flow total bytes",
            requirement: "must lie in [1 B, 4 GiB]",
        };
        let too_many = ConfigError::OutOfRange {
            what: "batch count",
            requirement: "(total bytes ÷ batch size, rounded up) must be at most 2^20",
        };
        assert_eq!(
            try_simulate_shared_report(&[], link, &Windows::empty()).err(),
            Some(ConfigError::ZeroCount {
                what: "flows on the shared link"
            })
        );
        let cases = [
            (
                FlowConfig {
                    chunk_size: 0,
                    ..ok
                },
                ConfigError::OutOfRange {
                    what: "chunk size",
                    requirement: "must be positive",
                },
            ),
            (
                FlowConfig {
                    total_bytes: 0,
                    ..ok
                },
                too_big,
            ),
            (
                FlowConfig {
                    batch_chunks: 0,
                    ..ok
                },
                ConfigError::ZeroCount {
                    what: "chunks per batch",
                },
            ),
            // Regression: the batch size overflowed in `FlowRt::new`, a
            // panic in debug builds and a zero-byte batch in release ones.
            (
                FlowConfig {
                    chunk_size: 1 << 63,
                    batch_chunks: 2,
                    ..ok
                },
                ConfigError::OutOfRange {
                    what: "batch size",
                    requirement: "(chunk size × chunks per batch) must fit in u64",
                },
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
            let shared = try_simulate_shared_report(&[ok, cfg], link, &Windows::empty());
            assert_eq!(shared.err(), Some(want));
        }
        // Regression: two 8 EiB uploads each passed `validate`, and the
        // engine's batch-boundary lists (2^44 entries a flow at 512 KB
        // chunks) got the process killed for want of memory.
        let vast = upload(DeviceProfile::ios(), 1 << 63, 1);
        assert_eq!(vast.validate(), Err(too_big));
        let shared = try_simulate_shared_report(&[vast, vast], link, &Windows::empty());
        assert_eq!(shared.err(), Some(too_big));
        // The largest flow, and one byte more: its samples would outgrow
        // the memory bound.
        let bytes = |n: u64| FlowConfig {
            total_bytes: n,
            ..ok
        };
        assert_eq!(bytes(MAX_FLOW_BYTES).validate(), Ok(()));
        assert_eq!(bytes(MAX_FLOW_BYTES + 1).validate(), Err(too_big));
        // The most batches a flow may have, and one more, in 1-byte chunks.
        let batches = |n: u64| FlowConfig {
            chunk_size: 1,
            total_bytes: n,
            ..ok
        };
        assert_eq!(batches(MAX_BATCHES).validate(), Ok(()));
        assert_eq!(batches(MAX_BATCHES + 1).validate(), Err(too_many));
        // A flow `validate` rejects, and the largest batch that fits: the
        // runtime's batch ends stop at the total instead of wrapping past
        // it.
        let huge = FlowConfig {
            chunk_size: 1 << 62,
            batch_chunks: 2,
            total_bytes: u64::MAX,
            ..ok
        };
        assert_eq!(huge.validate(), Err(too_big));
        let fl = FlowRt::new(&huge, 0);
        assert_eq!(fl.batches, 2);
        assert_eq!([fl.batch_end(0), fl.batch_end(1)], [1 << 63, u64::MAX]);
    }

    #[test]
    fn inflight_bounded_by_receive_window() {
        let t = simulate_flow(&upload(DeviceProfile::ios(), 8 * 512 * 1024, 12));
        let max_inflight = t.inflight_samples.iter().map(|&(_, f)| f).max().unwrap();
        assert!(
            max_inflight <= 65_535 + crate::tcp::MSS,
            "inflight {max_inflight} exceeds the 64 KB clamp"
        );
    }
}
