//! Radio-access link profiles and the fair-share bottleneck model.
//!
//! The paper's §4 results (Fig 12/13/15) all emerge from one measured
//! RTT/loss regime. [`LinkProfile`] parameterises that regime — a seeded
//! RTT distribution, a loss probability, a bandwidth cap and a buffer
//! sizing rule — with presets for Wi-Fi, LTE and 5G envelopes (after
//! *Performance Evaluation of Multimedia Traffic in Cloud Storage
//! Services over Wi-Fi and LTE Networks*) plus the paper's measured
//! baseline, so the §4 orderings can be checked across regimes.
//!
//! [`simulate_fair_share`] is the companion fluid model: N concurrent
//! flows on one front-end link split its bandwidth max-min-fairly, the
//! allocation recomputed once per instant at which flows arrive or
//! depart. One loop walks the time-sorted arrivals beside the single
//! pending completion, so a run costs a sort plus O(active flows) per such
//! instant instead of O(packets), which is what the fleet-replay path
//! needs; DESIGN.md §14 spells out when it is authoritative versus the
//! packet-level [`try_simulate_shared_report`] simulator and pins the
//! parity tolerance between the two.
//!
//! [`try_simulate_shared_report`]: crate::chunkflow::try_simulate_shared_report

use mcs_stats::rng::Rng;

use mcs_faults::ConfigError;
use mcs_sim::{Time, SEC};
use mcs_stats::rng::{split_seed, stream_rng, LogNormal};

use crate::chunkflow::FlowConfig;
use crate::device::DeviceProfile;
use crate::link::LinkConfig;

/// RNG stream tag for per-flow link sampling.
const STREAM_LINK: u64 = 0x4C49_4E4B; // "LINK"
/// RNG stream tag for per-user profile-mix draws.
const STREAM_MIX: u64 = 0x4D49_5853; // "MIXS"

/// A radio-access regime: everything needed to draw a concrete
/// [`LinkConfig`] for one flow from a seeded distribution.
///
/// The RTT is log-normal around `rtt_median` (σ on the log scale, the
/// same family the paper fits to `T_clt`/`T_srv`), clamped to
/// `[rtt_floor, 8 × rtt_median]`; the buffer is sized as a multiple of
/// the bandwidth-delay product with an absolute floor, matching how the
/// baseline link was sized by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Preset name; keys the `net.profile.*` metric families.
    pub name: &'static str,
    /// Serialization rate of the access link, bits per second.
    pub rate_bps: u64,
    /// Median full round-trip time, µs.
    pub rtt_median: Time,
    /// σ of ln(RTT); 0 draws nothing from the RNG and always yields the
    /// median (keeps the baseline bit-identical to the pre-profile code).
    pub rtt_sigma: f64,
    /// Lower clamp on sampled RTTs, µs.
    pub rtt_floor: Time,
    /// Independent per-packet random loss probability, in `[0, 1]`.
    pub loss_prob: f64,
    /// Mean exponential per-packet jitter, µs (0 disables).
    pub jitter_mean: Time,
    /// Buffer as a multiple of the bandwidth-delay product.
    pub buffer_bdp: f64,
    /// Absolute buffer floor, bytes.
    pub buffer_floor: u64,
}

impl LinkProfile {
    /// The paper's measured regime: 20 Mbit/s, 100 ms RTT, clean link.
    /// Its [`median_link`](Self::median_link) is exactly
    /// [`LinkConfig::default`], so campaigns run on this profile are
    /// bit-identical to the pre-profile code paths.
    pub fn measured_baseline() -> Self {
        Self {
            name: "baseline",
            rate_bps: 20_000_000,
            rtt_median: 100_000,
            rtt_sigma: 0.0,
            rtt_floor: 20_000,
            loss_prob: 0.0,
            jitter_mean: 0,
            buffer_bdp: 1.5,
            buffer_floor: 384 * 1024,
        }
    }

    /// Home/office Wi-Fi to a cloud front end: fast, mildly lossy,
    /// moderate RTT spread from MAC contention.
    pub fn wifi() -> Self {
        Self {
            name: "wifi",
            rate_bps: 30_000_000,
            rtt_median: 60_000,
            rtt_sigma: 0.25,
            rtt_floor: 15_000,
            loss_prob: 0.005,
            jitter_mean: 500,
            buffer_bdp: 1.5,
            buffer_floor: 256 * 1024,
        }
    }

    /// LTE: slower, burst-lossy, high RTT variance and a bloated
    /// eNodeB buffer (the classic cellular bufferbloat shape).
    pub fn lte() -> Self {
        Self {
            name: "lte",
            rate_bps: 15_000_000,
            rtt_median: 70_000,
            rtt_sigma: 0.35,
            rtt_floor: 30_000,
            loss_prob: 0.01,
            jitter_mean: 2_000,
            buffer_bdp: 2.0,
            buffer_floor: 256 * 1024,
        }
    }

    /// 5G NR: high rate, low floor latency, still a visible tail.
    pub fn fiveg() -> Self {
        Self {
            name: "5g",
            rate_bps: 150_000_000,
            rtt_median: 25_000,
            rtt_sigma: 0.30,
            rtt_floor: 8_000,
            loss_prob: 0.002,
            jitter_mean: 300,
            buffer_bdp: 1.0,
            buffer_floor: 512 * 1024,
        }
    }

    /// All presets, baseline first (scenario-matrix sweep order).
    pub fn presets() -> [Self; 4] {
        [
            Self::measured_baseline(),
            Self::wifi(),
            Self::lte(),
            Self::fiveg(),
        ]
    }

    /// Looks a preset up by its [`name`](Self::name).
    pub fn preset(name: &str) -> Option<Self> {
        Self::presets().into_iter().find(|p| p.name == name)
    }

    /// Checks the profile knobs, reusing [`LinkConfig::validate`] for the
    /// physical-link ones so the two layers cannot drift apart.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rtt_median == 0 {
            return Err(ConfigError::OutOfRange {
                what: "profile RTT median",
                requirement: "must be positive",
            });
        }
        if self.rtt_floor == 0 || self.rtt_floor > self.rtt_median {
            return Err(ConfigError::OutOfRange {
                what: "profile RTT floor",
                requirement: "must be positive and at most the median",
            });
        }
        if !(self.rtt_sigma.is_finite() && self.rtt_sigma >= 0.0) {
            return Err(ConfigError::OutOfRange {
                what: "profile RTT sigma",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.buffer_bdp.is_finite() && self.buffer_bdp >= 0.0) {
            return Err(ConfigError::OutOfRange {
                what: "profile buffer BDP multiple",
                requirement: "must be finite and non-negative",
            });
        }
        self.link_for_rtt(self.rtt_median).validate()
    }

    /// Buffer size for a given RTT draw: `max(floor, buffer_bdp × BDP)`.
    fn buffer_bytes(&self, rtt: Time) -> u64 {
        let bdp_bytes = (self.rate_bps as u128).saturating_mul(rtt as u128) / (8 * SEC as u128);
        let scaled = (bdp_bytes as f64 * self.buffer_bdp) as u128;
        u64::try_from(scaled)
            .unwrap_or(u64::MAX)
            .max(self.buffer_floor)
    }

    /// The concrete link for one RTT draw.
    fn link_for_rtt(&self, rtt: Time) -> LinkConfig {
        LinkConfig {
            rate_bps: self.rate_bps,
            delay: rtt / 2,
            buffer_bytes: self.buffer_bytes(rtt),
            loss_prob: self.loss_prob,
            jitter_mean: self.jitter_mean,
        }
    }

    /// The deterministic median link (no RNG).
    pub fn median_link(&self) -> LinkConfig {
        self.link_for_rtt(self.rtt_median)
    }

    /// Draws one RTT from the profile's distribution. σ = 0 always
    /// returns the median without consuming RNG state.
    fn sample_rtt(&self, rng: &mut impl Rng) -> Time {
        if self.rtt_sigma <= 0.0 {
            return self.rtt_median;
        }
        let drawn = LogNormal::from_median(self.rtt_median as f64, self.rtt_sigma).sample(rng);
        // The lognormal tail is unbounded; 8× the median caps it at
        // "very congested", keeping buffer sizing and RTO behaviour sane.
        let cap = self.rtt_median.saturating_mul(8);
        (drawn as Time).clamp(self.rtt_floor, cap)
    }

    /// Draws one concrete link.
    fn sample_link(&self, rng: &mut impl Rng) -> LinkConfig {
        self.link_for_rtt(self.sample_rtt(rng))
    }

    /// The seeded per-flow link: deterministic in `(profile, seed)` and
    /// independent of every other RNG stream the flow consumes.
    pub fn flow_link(&self, seed: u64) -> LinkConfig {
        if self.rtt_sigma <= 0.0 {
            return self.median_link();
        }
        self.sample_link(&mut stream_rng(seed, STREAM_LINK))
    }

    /// The seeded per-user link for fleet replay: deterministic in
    /// `(profile, master_seed, user)`.
    pub fn user_link(&self, master_seed: u64, user: u64) -> LinkConfig {
        if self.rtt_sigma <= 0.0 {
            return self.median_link();
        }
        self.sample_link(&mut stream_rng(split_seed(master_seed, user), STREAM_LINK))
    }
}

impl FlowConfig {
    /// [`FlowConfig::upload`] with the data link drawn from a profile
    /// (seeded by the flow's own seed). On the
    /// [measured baseline](LinkProfile::measured_baseline) this is
    /// bit-identical to [`FlowConfig::upload`].
    pub fn upload_via(profile: &LinkProfile, device: DeviceProfile, bytes: u64, seed: u64) -> Self {
        let link = profile.flow_link(seed);
        Self {
            data_link: link,
            ack_delay: link.delay,
            ..Self::upload(device, bytes, seed)
        }
    }

    /// [`FlowConfig::download`] with the data link drawn from a profile.
    pub fn download_via(
        profile: &LinkProfile,
        device: DeviceProfile,
        bytes: u64,
        seed: u64,
    ) -> Self {
        let link = profile.flow_link(seed);
        Self {
            data_link: link,
            ack_delay: link.delay,
            ..Self::download(device, bytes, seed)
        }
    }
}

/// The steady-state goodput ceiling of one flow, for use as its
/// [`FairFlowSpec::rate_cap_bps`]: the minimum of the access-link
/// goodput (`rate × (1 − loss)`), the receive-window bound
/// (`rwnd × 8 / RTT` — the §4.1 64 KB clamp when the server does not
/// scale), and the device stack's packet-processing ceiling (the Fig 12
/// Android/iOS asymmetry).
pub fn fluid_cap_bps(cfg: &FlowConfig) -> u64 {
    let rtt = cfg.data_link.delay.saturating_add(cfg.ack_delay).max(1);
    let stack = cfg.device.stack_rate_bps(cfg.direction);
    access_cap_bps_at_rtt(&cfg.data_link, cfg.receiver_window(), rtt).min(stack)
}

/// Goodput ceiling of one access link under a receive-window clamp,
/// taking the RTT as twice the link's one-way delay. The fleet-replay
/// path uses this to cap each user's fair share by their own radio link
/// (64 KB window for uploads — the §4.1 clamp — and the device window
/// for downloads).
pub fn access_cap_bps(link: &LinkConfig, rwnd_bytes: u64) -> u64 {
    access_cap_bps_at_rtt(link, rwnd_bytes, link.delay.saturating_mul(2))
}

fn access_cap_bps_at_rtt(link: &LinkConfig, rwnd_bytes: u64, rtt: Time) -> u64 {
    let rtt = rtt.max(1);
    let window_cap = (rwnd_bytes as u128).saturating_mul(8 * SEC as u128) / rtt as u128;
    let window_cap = u64::try_from(window_cap).unwrap_or(u64::MAX);
    let goodput = (link.rate_bps as f64 * (1.0 - link.loss_prob)) as u64;
    goodput.min(window_cap).max(1)
}

/// A weighted blend of profiles, drawn per user with a seeded RNG — the
/// fleet-replay knob for "this population is 50 % Wi-Fi, 30 % LTE, …".
///
/// Fixed-size so it stays `Copy` (and therefore `ReplayConfig` stays
/// `Copy`); unused slots carry weight 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileMix {
    /// Up to four `(profile, weight)` entries; weight 0 disables a slot.
    pub entries: [(LinkProfile, u32); 4],
}

impl ProfileMix {
    /// Every user on the paper's measured baseline.
    pub fn baseline() -> Self {
        Self {
            entries: [
                (LinkProfile::measured_baseline(), 1),
                (LinkProfile::wifi(), 0),
                (LinkProfile::lte(), 0),
                (LinkProfile::fiveg(), 0),
            ],
        }
    }

    /// A plausible mobile population: half Wi-Fi, a third LTE, the rest
    /// 5G with a sliver still on the measured baseline.
    pub fn mobile() -> Self {
        Self {
            entries: [
                (LinkProfile::wifi(), 5),
                (LinkProfile::lte(), 3),
                (LinkProfile::fiveg(), 1),
                (LinkProfile::measured_baseline(), 1),
            ],
        }
    }

    /// Total selection weight.
    pub fn total_weight(&self) -> u64 {
        self.entries.iter().map(|(_, w)| u64::from(*w)).sum()
    }

    /// Rejects an all-zero mix or any invalid member profile.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.total_weight() == 0 {
            return Err(ConfigError::ZeroCount {
                what: "profile mix weight",
            });
        }
        for (p, _) in &self.entries {
            p.validate()?;
        }
        Ok(())
    }

    /// The profile user `user` lives on: a weighted draw, deterministic
    /// in `(mix, master_seed, user)` and stable under reordering of the
    /// replay's op schedule.
    pub fn draw(&self, master_seed: u64, user: u64) -> LinkProfile {
        let total = self.total_weight().max(1);
        let mut rng = stream_rng(split_seed(master_seed, user), STREAM_MIX);
        let mut x = rng.random_range(0..total);
        for (p, w) in &self.entries {
            let w = u64::from(*w);
            if x < w {
                return *p;
            }
            x -= w;
        }
        self.entries[0].0
    }
}

/// One flow in the fluid fair-share model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairFlowSpec {
    /// Absolute arrival time on the simulation clock, µs.
    pub arrival: Time,
    /// Bytes the flow must move (must be positive).
    pub bytes: u64,
    /// Per-flow rate ceiling, bits per second; 0 means uncapped. Use
    /// [`fluid_cap_bps`] to derive it from a [`FlowConfig`].
    pub rate_cap_bps: u64,
}

/// What [`simulate_fair_share`] produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FairShareOutcome {
    /// Absolute completion time of each flow, µs, in input order.
    pub completions: Vec<Time>,
    /// `completion − arrival` per flow, µs, in input order.
    pub durations: Vec<Time>,
    /// Bandwidth reallocations: one per arriving flow, plus one per
    /// instant at which flows depart, none arrive and some keep running.
    pub recomputes: u64,
    /// Largest number of simultaneously active flows.
    pub peak_active: u64,
}

/// One admitted flow of the fluid model.
struct Live {
    /// Input index; the live set is kept sorted by it.
    idx: usize,
    /// Remaining work in bit·µs (bytes × 8 × SEC): integer all the way
    /// down, so depletion and completion times are exact and bit-identical
    /// across platforms and thread counts.
    remaining: u128,
    cap: u64,
    rate: u64,
}

/// Max-min waterfill over the live set, respecting per-flow caps, and the
/// time until the first live flow depletes at the new rates.
///
/// Each round binds the open flows whose cap fits the round's equal share
/// of what is left. That share never shrinks from one round to the next,
/// so a round only needs the caps between the previous share and its own,
/// and in the end a flow is bound exactly when its cap is at most the last
/// share. Once a round binds none, the open flows split what is left
/// evenly, the division remainder going one bit/s each to the earliest
/// arrivals (input order). Every flow is granted at least 1 bit/s, so
/// progress (and termination) is unconditional even when more flows than
/// bits-per-second share the link.
///
/// The depletion time is min ⌈remaining / rate⌉, saturating at the end of
/// time. The ceiling is monotone, so it is the ceiling of the smallest
/// ratio, found by cross-multiplying (exact while the work fits a `u64`)
/// and divided out once.
fn reallocate(link_rate: u64, live: &mut [Live]) -> Time {
    let mut rate_left = link_rate;
    let mut open = u64::try_from(live.len()).unwrap_or(u64::MAX);
    let mut bound_at = 0;
    while open > 0 {
        let share = rate_left / open;
        let (mut sum, mut count) = (0, 0);
        for f in live.iter().filter(|f| f.cap > bound_at && f.cap <= share) {
            sum += f.cap;
            count += 1;
        }
        bound_at = share;
        if count == 0 {
            break;
        }
        rate_left -= sum;
        open -= count;
    }
    let (base, extra) = match open {
        0 => (0, 0),
        _ => (rate_left / open, rate_left % open),
    };
    let mut k = 0;
    // The smallest remaining/rate ratio so far; u64::MAX / 1 bounds them.
    let (mut r, mut q) = (u64::MAX, 1);
    let mut dt = u128::MAX;
    for f in live.iter_mut() {
        let bound = f.cap <= bound_at;
        k += u64::from(!bound);
        f.rate = if bound {
            f.cap
        } else {
            (base + u64::from(k <= extra)).max(1)
        };
        match u64::try_from(f.remaining) {
            Ok(rem) if u128::from(rem) * u128::from(q) < u128::from(r) * u128::from(f.rate) => {
                (r, q) = (rem, f.rate);
            }
            Ok(_) => {}
            Err(_) => dt = dt.min(f.remaining.div_ceil(u128::from(f.rate))),
        }
    }
    dt = dt.min(u128::from(r.div_ceil(q)));
    u64::try_from(dt).unwrap_or(Time::MAX)
}

/// Runs the fluid fair-share model: `flows` share one front-end link of
/// `link_rate_bps`, each additionally bounded by its own
/// [`rate_cap_bps`](FairFlowSpec::rate_cap_bps). Allocation is max-min
/// fair and recomputed once per instant at which flows arrive or depart;
/// in between, every flow depletes linearly, in exact integer arithmetic.
/// Flows still running when the µs clock saturates complete at
/// `Time::MAX`.
///
/// ```
/// use mcs_net::profile::{simulate_fair_share, FairFlowSpec};
///
/// // 1 MB alone for 0.5 s, then a second 0.5 MB flow joins: both halve
/// // to 4 Mbit/s and finish together at t = 1.5 s.
/// let out = simulate_fair_share(
///     8_000_000,
///     &[
///         FairFlowSpec { arrival: 0, bytes: 1_000_000, rate_cap_bps: 0 },
///         FairFlowSpec { arrival: 500_000, bytes: 500_000, rate_cap_bps: 0 },
///     ],
/// )
/// .unwrap();
/// assert_eq!(out.completions, vec![1_500_000, 1_500_000]);
/// ```
pub fn simulate_fair_share(
    link_rate_bps: u64,
    flows: &[FairFlowSpec],
) -> Result<FairShareOutcome, ConfigError> {
    if link_rate_bps == 0 {
        return Err(ConfigError::OutOfRange {
            what: "front-end link rate",
            requirement: "must be positive",
        });
    }
    for f in flows {
        if f.bytes == 0 {
            return Err(ConfigError::OutOfRange {
                what: "fair-share flow bytes",
                requirement: "must move at least one byte",
            });
        }
    }
    let mut out = FairShareOutcome {
        completions: vec![0; flows.len()],
        ..FairShareOutcome::default()
    };
    // Arrivals in time order. Those of one µs are admitted together, and
    // the live set is kept in input order whatever order they join in.
    let mut arrivals: Vec<(Time, usize)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (f.arrival, i))
        .collect();
    arrivals.sort_unstable();
    let mut arrivals = arrivals.into_iter().peekable();
    let mut live: Vec<Live> = Vec::new();
    let mut last: Time = 0;
    // The one live completion tick: when the first live flow depletes.
    let mut tick: Option<Time> = None;
    loop {
        // The next instant is the next arrival or the tick, whichever
        // comes first; one that coincides with both handles both.
        let now = match (arrivals.peek(), tick) {
            (Some(&(at, _)), Some(t)) => at.min(t),
            (Some(&(at, _)), None) => at,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        // Deplete every live flow up to `now`, retiring those that finish.
        let dt = now.saturating_sub(last);
        last = now;
        if dt > 0 {
            let mut finished = false;
            for f in live.iter_mut() {
                let spent = u128::from(f.rate) * u128::from(dt);
                f.remaining = f.remaining.saturating_sub(spent);
                finished |= f.remaining == 0;
            }
            if finished {
                live.retain(|f| {
                    if f.remaining == 0 {
                        out.completions[f.idx] = now;
                    }
                    f.remaining > 0
                });
            }
        }
        let mut arrived = 0;
        while let Some((_, idx)) = arrivals.next_if(|&(at, _)| at == now) {
            let f = &flows[idx];
            let pos = live.partition_point(|g| g.idx < idx);
            let cap = if f.rate_cap_bps == 0 {
                u64::MAX
            } else {
                f.rate_cap_bps
            };
            let remaining = u128::from(f.bytes) * u128::from(8 * SEC);
            live.insert(
                pos,
                Live {
                    idx,
                    remaining,
                    cap,
                    rate: 0,
                },
            );
            arrived += 1;
        }
        if live.is_empty() {
            tick = None;
            continue;
        }
        if now == Time::MAX {
            // The clock cannot advance: what still runs completes here.
            live.iter().for_each(|f| out.completions[f.idx] = now);
            break;
        }
        // One reallocation per arrival, or one for a departure alone.
        out.recomputes += arrived.max(1);
        let active = u64::try_from(live.len()).unwrap_or(u64::MAX);
        out.peak_active = out.peak_active.max(active);
        tick = Some(now.saturating_add(reallocate(link_rate_bps, &mut live)));
    }
    out.durations = out
        .completions
        .iter()
        .zip(flows)
        .map(|(&c, f)| c.saturating_sub(f.arrival))
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkflow::try_simulate_shared_report;
    use mcs_faults::Windows;
    use mcs_sim::EventQueue;
    use mcs_sim::MS;

    /// Events of the reference solver: a flow arrives, or the earliest
    /// predicted completion under the current allocation comes due. Ticks
    /// carry the allocation epoch that scheduled them; a reallocation bumps
    /// the epoch, so stale ticks are skipped instead of double-counting
    /// progress.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum FsEv {
        Arrive(usize),
        Tick(u64),
    }

    struct FsEngine {
        link_rate: u64,
        /// Remaining work per flow, in bit·µs (bytes × 8 × SEC): integer all
        /// the way down, so depletion and completion times are exact and
        /// bit-identical across platforms and thread counts.
        remaining: Vec<u128>,
        caps: Vec<u64>,
        rates: Vec<u64>,
        active: Vec<usize>,
        last: Time,
        epoch: u64,
        completions: Vec<Time>,
        recomputes: u64,
        peak_active: u64,
    }

    impl FsEngine {
        /// Advances every active flow's remaining work to `now` under the
        /// current allocation, retiring flows that hit zero.
        fn drain(&mut self, now: Time) {
            let dt = now.saturating_sub(self.last) as u128;
            self.last = now;
            if dt == 0 {
                return;
            }
            let rates = &self.rates;
            let remaining = &mut self.remaining;
            let completions = &mut self.completions;
            self.active.retain(|&i| {
                let spent = (rates[i] as u128).saturating_mul(dt);
                remaining[i] = remaining[i].saturating_sub(spent);
                if remaining[i] == 0 {
                    completions[i] = now;
                    false
                } else {
                    true
                }
            });
        }

        /// Max-min waterfill over the active set, respecting per-flow caps,
        /// then schedules the next completion tick. Every flow is granted at
        /// least 1 bit/s so progress (and termination) is unconditional even
        /// when more flows than bits-per-second share the link.
        fn reallocate(&mut self, now: Time, q: &mut EventQueue<FsEv>) {
            self.epoch = self.epoch.wrapping_add(1);
            if self.active.is_empty() {
                return;
            }
            self.recomputes += 1;
            self.peak_active = self
                .peak_active
                .max(u64::try_from(self.active.len()).unwrap_or(u64::MAX));
            let mut rate_left = self.link_rate;
            let mut open = self.active.clone();
            loop {
                let n = u64::try_from(open.len()).unwrap_or(u64::MAX);
                if n == 0 {
                    break;
                }
                let share = rate_left / n;
                let caps = &self.caps;
                let rates = &mut self.rates;
                let mut bound_any = false;
                open.retain(|&i| {
                    if caps[i] <= share {
                        rates[i] = caps[i].max(1);
                        rate_left = rate_left.saturating_sub(rates[i]);
                        bound_any = true;
                        false
                    } else {
                        true
                    }
                });
                if !bound_any {
                    // Unbounded flows split what's left evenly; the division
                    // remainder goes to the earliest arrivals (input order)
                    // one bit/s each, keeping the split integral and exact.
                    let base = rate_left / n;
                    let extra = rate_left % n;
                    for (k, &i) in open.iter().enumerate() {
                        let bump = u64::from((u64::try_from(k).unwrap_or(u64::MAX)) < extra);
                        self.rates[i] = (base + bump).max(1);
                    }
                    break;
                }
            }
            let mut dt_min = u128::MAX;
            for &i in &self.active {
                let dt = self.remaining[i].div_ceil(self.rates[i] as u128);
                dt_min = dt_min.min(dt);
            }
            let dt = u64::try_from(dt_min).unwrap_or(Time::MAX);
            q.schedule(now.saturating_add(dt), FsEv::Tick(self.epoch));
        }

        fn handle(&mut self, q: &mut EventQueue<FsEv>, now: Time, ev: FsEv) {
            match ev {
                FsEv::Arrive(i) => {
                    self.drain(now);
                    let pos = self.active.partition_point(|&j| j < i);
                    self.active.insert(pos, i);
                    self.reallocate(now, q);
                }
                FsEv::Tick(epoch) => {
                    if epoch != self.epoch {
                        return;
                    }
                    self.drain(now);
                    self.reallocate(now, q);
                }
            }
        }
    }

    /// The queue-based solver the merged loop replaced, kept as the
    /// reference it must match: arrivals and completion ticks are events on
    /// the `mcs-sim` queue, dispatched in (time, insertion) order, and every
    /// arrival reallocates.
    fn queue_fair_share(link_rate_bps: u64, flows: &[FairFlowSpec]) -> FairShareOutcome {
        let mut q = EventQueue::new();
        for (i, f) in flows.iter().enumerate() {
            q.schedule(f.arrival, FsEv::Arrive(i));
        }
        let n = flows.len();
        let mut eng = FsEngine {
            link_rate: link_rate_bps,
            remaining: flows
                .iter()
                .map(|f| (f.bytes as u128).saturating_mul(8 * SEC as u128))
                .collect(),
            caps: flows
                .iter()
                .map(|f| {
                    if f.rate_cap_bps == 0 {
                        u64::MAX
                    } else {
                        f.rate_cap_bps
                    }
                })
                .collect(),
            rates: vec![0; n],
            active: Vec::with_capacity(n),
            last: 0,
            epoch: 0,
            completions: vec![0; n],
            recomputes: 0,
            peak_active: 0,
        };
        while let Some((now, ev)) = q.pop() {
            eng.handle(&mut q, now, ev);
        }
        let durations = eng
            .completions
            .iter()
            .zip(flows)
            .map(|(&c, f)| c.saturating_sub(f.arrival))
            .collect();
        FairShareOutcome {
            completions: eng.completions,
            durations,
            recomputes: eng.recomputes,
            peak_active: eng.peak_active,
        }
    }

    /// A cap of 0 (uncapped) one time in three, else one in `caps`.
    fn draw_cap(rng: &mut impl Rng, caps: std::ops::Range<u64>) -> u64 {
        if rng.random_range(0..3u32) == 0 {
            0
        } else {
            rng.random_range(caps)
        }
    }

    /// Seeded solver input `case`: a link rate and flows whose arrivals sit
    /// on a coarse grid, so several share one µs. The family, by
    /// `case % 4`, forces one corner:
    /// 0. a contended link, flows capped and uncapped;
    /// 1. a link slower than the flow count (the 1 bit/s floor);
    /// 2. work past `u64::MAX` bit·µs (terabyte flows on Gbit/s links);
    /// 3. caps banded around the fair share, all arriving together, so
    ///    the waterfill binds over several rounds.
    fn solver_case(case: u64) -> (u64, Vec<FairFlowSpec>) {
        let mut rng = stream_rng(0x5EED, case);
        let n = rng.random_range(2..24u64);
        let (link, grid) = match case % 4 {
            0 => (rng.random_range(1_000_000..50_000_000), 200 * MS),
            1 => (rng.random_range(1..n), 10 * SEC),
            2 => (rng.random_range(1_000_000_000..20_000_000_000), 1_000 * SEC),
            _ => (rng.random_range(1_000_000..50_000_000), 0),
        };
        let flows = (0..n)
            .map(|_| {
                let arrival = rng.random_range(0..6u64) * grid;
                let (bytes, cap) = match case % 4 {
                    0 => (
                        rng.random_range(1..2_000_000),
                        draw_cap(&mut rng, 100_000..20_000_000),
                    ),
                    1 => (rng.random_range(1..64), draw_cap(&mut rng, 1..4)),
                    2 => (
                        rng.random_range(2_400_000_000_000..10_000_000_000_000),
                        draw_cap(&mut rng, 100_000_000..20_000_000_000),
                    ),
                    _ => (
                        rng.random_range(1..2_000_000),
                        draw_cap(&mut rng, link / (2 * n)..2 * link / n),
                    ),
                };
                FairFlowSpec {
                    arrival,
                    bytes,
                    rate_cap_bps: cap,
                }
            })
            .collect();
        (link, flows)
    }

    #[test]
    fn baseline_median_link_is_the_default_link() {
        let p = LinkProfile::measured_baseline();
        assert_eq!(p.median_link(), LinkConfig::default());
        // And the profile-built flow is bit-identical to the plain one.
        let via = FlowConfig::upload_via(&p, DeviceProfile::android(), 2 << 20, 9);
        assert_eq!(
            via,
            FlowConfig::upload(DeviceProfile::android(), 2 << 20, 9)
        );
    }

    #[test]
    fn presets_validate_and_sample_within_bounds() {
        for p in LinkProfile::presets() {
            p.validate().unwrap();
            let mut rng = stream_rng(11, 22);
            for _ in 0..200 {
                let rtt = p.sample_rtt(&mut rng);
                assert!(rtt >= p.rtt_floor && rtt <= p.rtt_median.saturating_mul(8));
                let link = p.sample_link(&mut rng);
                link.validate().unwrap();
                assert!(link.buffer_bytes >= p.buffer_floor);
            }
            assert_eq!(LinkProfile::preset(p.name), Some(p));
        }
    }

    #[test]
    fn bad_profiles_rejected() {
        let mut p = LinkProfile::wifi();
        p.rtt_floor = p.rtt_median + 1;
        assert!(p.validate().is_err());
        let mut p = LinkProfile::wifi();
        p.loss_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = LinkProfile::wifi();
        p.rate_bps = 0;
        assert!(p.validate().is_err());
        let mut p = LinkProfile::wifi();
        p.rtt_sigma = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn flow_link_is_seed_deterministic() {
        let p = LinkProfile::lte();
        assert_eq!(p.flow_link(5), p.flow_link(5));
        assert_ne!(p.flow_link(5), p.flow_link(6));
        assert_eq!(p.user_link(3, 14), p.user_link(3, 14));
    }

    #[test]
    fn mix_draw_follows_weights() {
        let mix = ProfileMix::mobile();
        mix.validate().unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for user in 0..2_000u64 {
            *counts.entry(mix.draw(42, user).name).or_insert(0u32) += 1;
        }
        // 5:3:1:1 weights — the ordering must show up over 2 000 users.
        assert!(counts["wifi"] > counts["lte"]);
        assert!(counts["lte"] > counts["5g"]);
        assert!(counts["5g"] > 0 && counts["baseline"] > 0);
        // Deterministic per user.
        assert_eq!(mix.draw(42, 7).name, mix.draw(42, 7).name);
        let zero = ProfileMix {
            entries: [
                (LinkProfile::wifi(), 0),
                (LinkProfile::wifi(), 0),
                (LinkProfile::wifi(), 0),
                (LinkProfile::wifi(), 0),
            ],
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn fair_share_respects_caps_and_conserves_work() {
        // Two capped flows on an ample link run at their caps.
        let out = simulate_fair_share(
            10_000_000,
            &[
                FairFlowSpec {
                    arrival: 0,
                    bytes: 250_000,
                    rate_cap_bps: 2_000_000,
                },
                FairFlowSpec {
                    arrival: 0,
                    bytes: 250_000,
                    rate_cap_bps: 2_000_000,
                },
            ],
        )
        .unwrap();
        // 250 kB × 8 / 2 Mbit/s = 1 s each.
        assert_eq!(out.durations, vec![SEC, SEC]);
        assert_eq!(out.peak_active, 2);

        // A capped flow next to an uncapped one: the uncapped flow gets
        // the rest of the link.
        let out = simulate_fair_share(
            10_000_000,
            &[
                FairFlowSpec {
                    arrival: 0,
                    bytes: 125_000,
                    rate_cap_bps: 1_000_000,
                },
                FairFlowSpec {
                    arrival: 0,
                    bytes: 9_000_000,
                    rate_cap_bps: 0,
                },
            ],
        )
        .unwrap();
        assert_eq!(out.durations[0], SEC); // 1 Mbit at 1 Mbit/s
                                           // 72 Mbit: 9 Mbit/s while sharing (1 s), 10 Mbit/s after.
        assert_eq!(
            out.durations[1],
            SEC + (72_000_000 - 9_000_000) / 10 * SEC / 1_000_000
        );
    }

    #[test]
    fn fair_share_rejects_bad_inputs() {
        assert!(simulate_fair_share(0, &[]).is_err());
        assert!(simulate_fair_share(
            1_000,
            &[FairFlowSpec {
                arrival: 0,
                bytes: 0,
                rate_cap_bps: 0
            }]
        )
        .is_err());
        assert_eq!(
            simulate_fair_share(1_000, &[]).unwrap(),
            FairShareOutcome::default()
        );
    }

    #[test]
    fn fair_share_is_deterministic_and_survives_many_flows() {
        let flows: Vec<FairFlowSpec> = (0..64)
            .map(|i| FairFlowSpec {
                arrival: (i % 7) * 100 * MS,
                bytes: 50_000 + i * 1_000,
                rate_cap_bps: if i % 3 == 0 { 500_000 } else { 0 },
            })
            .collect();
        let a = simulate_fair_share(20_000_000, &flows).unwrap();
        let b = simulate_fair_share(20_000_000, &flows).unwrap();
        assert_eq!(a, b);
        assert!(a.completions.iter().all(|&c| c > 0));
        assert!(a.peak_active >= 32 && a.peak_active <= 64);
        assert!(a.recomputes >= 64); // at least one per arrival
    }

    #[test]
    fn merged_loop_matches_the_queue_solver() {
        // Caps that bind one per waterfill round: the shares 200 000,
        // 225 000, 226 666 and 227 000 each bind one flow, and the
        // uncapped flow takes the 227 100 bit/s left.
        let ladder = [100_000, 220_000, 226_000, 226_900, 0]
            .map(|cap| FairFlowSpec {
                arrival: 0,
                bytes: 500_000,
                rate_cap_bps: cap,
            })
            .to_vec();
        let mut cases = vec![(1_000_000, ladder)];
        cases.extend((0..512).map(solver_case));
        let mut on_tick = 0;
        for (case, (link, mut flows)) in cases.into_iter().enumerate() {
            let want = queue_fair_share(link, &flows);
            assert_eq!(
                simulate_fair_share(link, &flows).unwrap(),
                want,
                "case {case}"
            );
            // One more flow arriving on the µs a flow completes: that is
            // when the live tick fires, unless an arrival shares the µs.
            let tick = want
                .completions
                .iter()
                .find(|&&c| flows.iter().all(|f| f.arrival != c));
            if let Some(&at) = tick {
                flows.push(FairFlowSpec {
                    arrival: at,
                    ..flows[0]
                });
                on_tick += 1;
                assert_eq!(
                    simulate_fair_share(link, &flows).unwrap(),
                    queue_fair_share(link, &flows),
                    "case {case}, arrival on the tick at {at}"
                );
            }
        }
        assert!(on_tick > 400, "{on_tick} arrivals on a tick");
    }

    #[test]
    fn fair_share_ends_at_the_end_of_time() {
        // 2^64 − 1 bytes at 1 bit/s outlast the µs clock: the flow
        // completes when the clock saturates instead of ticking there
        // forever.
        let huge = FairFlowSpec {
            arrival: 0,
            bytes: u64::MAX,
            rate_cap_bps: 0,
        };
        let late = FairFlowSpec {
            arrival: Time::MAX,
            bytes: 1,
            rate_cap_bps: 0,
        };
        let out = simulate_fair_share(1, &[huge, late]).unwrap();
        assert_eq!(out.completions, vec![Time::MAX, Time::MAX]);
        assert_eq!(out.durations, vec![Time::MAX, 0]);
    }

    /// The acceptance-criteria parity test: on small contention cases the
    /// fluid model must agree with the packet-level shared simulator
    /// within the tolerance documented in DESIGN.md §14.
    #[test]
    fn fair_share_parity_with_packet_level_shared() {
        let link = LinkConfig {
            rate_bps: 4_000_000,
            delay: 40_000,
            buffer_bytes: 256 * 1024,
            loss_prob: 0.0,
            jitter_mean: 0,
        };
        // Deployed regime: 64 KB window (no scaling), one big batch so
        // there are no chunk idles — the window-clamped steady state is
        // where the fluid model is a meaningful stand-in (DESIGN.md §14).
        let mk = |dev: DeviceProfile, seed: u64| FlowConfig {
            batch_chunks: 64,
            data_link: link,
            ack_delay: link.delay,
            ..FlowConfig::upload(dev, 2 << 20, seed)
        };
        let mut cases: Vec<Vec<FlowConfig>> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|i| mk(DeviceProfile::ios(), 7 + i as u64))
                    .collect()
            })
            .collect();
        // Heterogeneous caps: a stack-limited Android next to an iOS
        // flow on the baseline link.
        let base = LinkConfig::default();
        cases.push(
            [DeviceProfile::android(), DeviceProfile::ios()]
                .iter()
                .enumerate()
                .map(|(i, &dev)| FlowConfig {
                    data_link: base,
                    ack_delay: base.delay,
                    ..mk(dev, 7 + i as u64)
                })
                .collect(),
        );
        for cfgs in cases {
            let shared = cfgs[0].data_link;
            let report = try_simulate_shared_report(&cfgs, shared, &Windows::empty()).unwrap();
            assert!(report.link.conserves());
            let specs: Vec<FairFlowSpec> = cfgs
                .iter()
                .map(|c| FairFlowSpec {
                    arrival: 0,
                    bytes: c.total_bytes,
                    rate_cap_bps: fluid_cap_bps(c),
                })
                .collect();
            let fluid = simulate_fair_share(shared.rate_bps, &specs).unwrap();
            for (t, &f) in report.traces.iter().zip(&fluid.durations) {
                let ratio = t.duration as f64 / f as f64;
                assert!(
                    (0.8..=1.25).contains(&ratio),
                    "packet/fluid ratio {ratio:.3} outside the documented \
                     [0.8, 1.25] band ({} flows)",
                    cfgs.len()
                );
            }
        }
    }
}
