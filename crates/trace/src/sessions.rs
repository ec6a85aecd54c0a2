//! Per-user session planning.
//!
//! Turns a [`UserProfile`]'s file budgets and engagement pattern into a
//! list of [`SessionPlan`]s: *when* the user shows up, from *which device*,
//! to move *which files in which direction*. The actual log records
//! (timestamps of individual operations/chunks) are produced by the
//! generator from these plans.

use mcs_stats::rng::Rng;

use mcs_stats::rng::{Categorical, Exponential, Zipf};

use crate::config::TraceConfig;
use crate::population::{ClientGroup, UserClass, UserProfile};
use crate::record::{DeviceType, Direction};

/// A planned file transfer inside a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedFile {
    /// Store or retrieve.
    pub direction: Direction,
    /// File size in bytes.
    pub size: u64,
}

/// A planned session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Session start, ms since trace start.
    pub start_ms: u64,
    /// Device used.
    pub device_id: u64,
    /// Platform of that device.
    pub device_type: DeviceType,
    /// Files to move, in issue order.
    pub files: Vec<PlannedFile>,
}

impl SessionPlan {
    /// Total bytes stored in the session.
    pub fn store_bytes(&self) -> u64 {
        self.files
            .iter()
            .filter(|f| f.direction == Direction::Store)
            .map(|f| f.size)
            .sum()
    }

    /// Total bytes retrieved in the session.
    pub fn retrieve_bytes(&self) -> u64 {
        self.files
            .iter()
            .filter(|f| f.direction == Direction::Retrieve)
            .map(|f| f.size)
            .sum()
    }
}

/// Pre-built samplers shared across users (immutable; cheap to reference).
pub struct SessionSamplers {
    files_per_session: Zipf,
    store_component: Categorical,
    store_means: Vec<f64>,
    retrieve_component: Categorical,
    retrieve_means: Vec<f64>,
    hour_of_day: Categorical,
}

impl SessionSamplers {
    /// Builds the samplers from a validated configuration.
    pub fn new(cfg: &TraceConfig) -> Self {
        let store_w: Vec<f64> = cfg.store_sizes.components.iter().map(|&(w, _)| w).collect();
        let store_m: Vec<f64> = cfg.store_sizes.components.iter().map(|&(_, m)| m).collect();
        let ret_w: Vec<f64> = cfg
            .retrieve_sizes
            .components
            .iter()
            .map(|&(w, _)| w)
            .collect();
        let ret_m: Vec<f64> = cfg
            .retrieve_sizes
            .components
            .iter()
            .map(|&(_, m)| m)
            .collect();
        Self {
            files_per_session: Zipf::new(
                cfg.session.files_per_session_max,
                cfg.session.files_per_session_zipf_s,
            ),
            store_component: Categorical::new(&store_w),
            store_means: store_m,
            retrieve_component: Categorical::new(&ret_w),
            retrieve_means: ret_m,
            hour_of_day: Categorical::new(&cfg.diurnal.hour_weights),
        }
    }
}

/// Plans all sessions of one user. Deterministic given the RNG state.
pub fn plan_user_sessions(
    cfg: &TraceConfig,
    samplers: &SessionSamplers,
    user: &UserProfile,
    rng: &mut impl Rng,
) -> Vec<SessionPlan> {
    let mut active_days = draw_active_days(cfg, user, rng);
    // A day with zero file operations is invisible in the logs: keep only
    // as many active days as the user has files to move, so planned
    // returns translate into *observable* returns (Fig. 8).
    let total_budget = (user.store_files + user.retrieve_files).max(1) as usize;
    active_days.truncate(total_budget.max(1));
    let store_alloc = allocate_budget(user.store_files, active_days.len(), rng);
    // Mobile+PC sync users want retrievals near their uploads — bias the
    // retrieval allocation toward store-heavy days (Fig. 9's day-0 spike).
    let retrieve_alloc = if user.group == ClientGroup::MobilePc
        && rng.random::<f64>() < cfg.engagement.pc_sync_same_day_prob
    {
        mirror_allocation(user.retrieve_files, &store_alloc)
    } else {
        allocate_budget(user.retrieve_files, active_days.len(), rng)
    };

    let mut plans = Vec::new();
    for (i, &day) in active_days.iter().enumerate() {
        plan_day(
            cfg,
            samplers,
            user,
            day,
            store_alloc[i],
            retrieve_alloc[i],
            rng,
            &mut plans,
        );
    }
    // Chronological order is a published guarantee: the storage replay's
    // plan phase walks each user's sessions in this order and relies on it
    // to match the per-user order its execute phase dispatches in
    // (DESIGN.md §10.4). The stable sort keeps same-millisecond sessions
    // in planning order.
    plans.sort_by_key(|p| p.start_ms);
    plans
}

/// Days (0-based) on which the user is active. The process is
/// *stationary*: the observation week is a window onto ongoing behaviour,
/// not the user's first week ever — anchoring everyone's start inside the
/// window would fabricate a ramp that Fig. 1 does not show. One-shot users
/// appear exactly once (uniform position); regulars are active each day
/// independently with a rate that grows with device count (syncing).
fn draw_active_days(cfg: &TraceConfig, user: &UserProfile, rng: &mut impl Rng) -> Vec<u32> {
    if user.oneshot {
        return vec![user.first_day];
    }
    let base = if user.mobile_device_count() > 1 || user.uses_pc() {
        cfg.engagement.daily_return_prob_multi
    } else {
        cfg.engagement.daily_return_prob
    };
    let mut days = Vec::new();
    for d in 0..cfg.horizon_days {
        let mut p = base;
        if is_weekend(d) {
            p = (p * cfg.diurnal.weekend_factor).min(0.95);
        }
        if rng.random::<f64>() < p {
            days.push(d);
        }
    }
    if days.is_empty() {
        days.push(user.first_day);
    }
    days
}

/// Day-of-week helper; the trace starts on a Monday like the paper's week
/// (Fig. 1 runs M..Su), so days 5 and 6 are the weekend.
pub fn is_weekend(day: u32) -> bool {
    day % 7 >= 5
}

/// Splits `total` files across `n_days` with random proportions (every
/// active day gets at least one file while supply lasts).
fn allocate_budget(total: u64, n_days: usize, rng: &mut impl Rng) -> Vec<u64> {
    assert!(n_days > 0, "allocation needs at least one day");
    if total == 0 {
        return vec![0; n_days];
    }
    // Every active day performs at least one operation when supply allows
    // (users who show up do something), the rest spread randomly.
    let base = if total >= n_days as u64 { 1 } else { 0 };
    let mut out = vec![base; n_days];
    let mut remaining = total - base * n_days as u64;
    if base == 0 {
        // Fewer files than days: give the first `total` days one each.
        for slot in out.iter_mut().take(total as usize) {
            *slot = 1;
        }
        remaining = 0;
    }
    if remaining > 0 {
        let weights: Vec<f64> = (0..n_days).map(|_| rng.random::<f64>() + 0.25).collect();
        let wsum: f64 = weights.iter().sum();
        let mut assigned = 0u64;
        for (slot, w) in out.iter_mut().zip(&weights) {
            let extra = ((w / wsum) * remaining as f64).floor() as u64;
            *slot += extra;
            assigned += extra;
        }
        out[0] += remaining - assigned;
    }
    out
}

/// Gives the retrieval budget the same day-shape as the storage allocation
/// (same-day sync).
fn mirror_allocation(total: u64, store_alloc: &[u64]) -> Vec<u64> {
    let store_total: u64 = store_alloc.iter().sum();
    if total == 0 || store_total == 0 {
        let mut v = vec![0; store_alloc.len()];
        if total > 0 {
            v[0] = total;
        }
        return v;
    }
    let mut out: Vec<u64> = store_alloc
        .iter()
        .map(|&s| (s as f64 / store_total as f64 * total as f64).floor() as u64)
        .collect();
    let assigned: u64 = out.iter().sum();
    out[0] += total - assigned;
    out
}

#[allow(clippy::too_many_arguments)]
fn plan_day(
    cfg: &TraceConfig,
    samplers: &SessionSamplers,
    user: &UserProfile,
    day: u32,
    mut store_left: u64,
    mut retrieve_left: u64,
    rng: &mut impl Rng,
    out: &mut Vec<SessionPlan>,
) {
    // Occasional users store exactly one sub-MB file.
    let occasional = user.class == UserClass::Occasional;
    let mut guard = 0;
    while (store_left > 0 || retrieve_left > 0) && guard < 10_000 {
        guard += 1;
        let start_ms = draw_session_start(samplers, day, rng);
        let (device_id, device_type) = pick_device(user, rng);

        // Direction of this session.
        let both = store_left > 0 && retrieve_left > 0;
        let mixed_session =
            both && user.class == UserClass::Mixed && rng.random::<f64>() < MIXED_SESSION_PROB;
        let store_session = if both {
            let p = store_left as f64 / (store_left + retrieve_left) as f64;
            rng.random::<f64>() < p
        } else {
            store_left > 0
        };

        // Heavy days batch proportionally more files per session (a user
        // backing up 500 photos does not open 150 separate sessions); this
        // keeps sessions-per-day bounded so same-day session gaps do not
        // swamp the Fig. 3 between-session mode.
        let day_load = store_left + retrieve_left;
        let batch_scale = (day_load / 4).max(1);
        let mut files = Vec::new();
        if store_session || mixed_session {
            let comp = samplers.store_component.sample(rng);
            let mean = samplers.store_means[comp];
            // Files within one session share a typical size (one camera's
            // photos, one screen's recordings): the *session* draws the
            // scale from the exponential component; individual files jitter
            // around it. This keeps per-session averages on the Table 2
            // mixture regardless of batch size.
            let session_scale = Exponential::new(mean).sample(rng);
            // Size and count anti-correlate: photo sessions (component 0)
            // batch many files; video sessions upload one to three large
            // recordings. This is what keeps the Fig. 5b volume-vs-files
            // slope at the ~1.5 MB photo size.
            let n = if comp == 0 {
                (draw_session_file_count(samplers, rng) * batch_scale)
                    .min(store_left)
                    .min(400)
            } else {
                (1 + (rng.random::<f64>() * 3.0) as u64).min(store_left)
            };
            for _ in 0..n {
                let size = if occasional {
                    50_000 + (rng.random::<f64>() * 650_000.0) as u64
                } else {
                    draw_file_size_around(session_scale, rng)
                };
                files.push(PlannedFile {
                    direction: Direction::Store,
                    size,
                });
            }
            store_left -= n;
        }
        if (!store_session && (!files.is_empty() || retrieve_left > 0)) || mixed_session {
            // Retrieval leg: either the whole session or the tail of a
            // mixed session.
            let comp = samplers.retrieve_component.sample(rng);
            let mean = samplers.retrieve_means[comp];
            let session_scale = Exponential::new(mean).sample(rng);
            let n = if mixed_session {
                retrieve_left.min(1 + (rng.random::<f64>() * 2.0) as u64)
            } else {
                let raw = if comp == 0 {
                    // Photo-sized component: any batch size.
                    (draw_session_file_count(samplers, rng) * batch_scale).min(400)
                } else {
                    // Video-sized components: one to three large objects
                    // (this is what makes Fig. 5c's one-file sessions huge).
                    1 + (rng.random::<f64>() * 3.0) as u64
                };
                raw.min(retrieve_left)
            };
            for _ in 0..n {
                files.push(PlannedFile {
                    direction: Direction::Retrieve,
                    size: draw_file_size_around(session_scale, rng),
                });
            }
            retrieve_left -= n;
        }

        if files.is_empty() {
            // Nothing left to plan in the chosen direction (e.g. the
            // session drew 0 because budgets ran dry mid-loop).
            break;
        }
        out.push(SessionPlan {
            start_ms,
            device_id,
            device_type,
            files,
        });
        let _ = cfg;
    }
}

/// Probability that a session of a mixed-class user carries both directions
/// (calibrated so ~2 % of *all* sessions are mixed, §3.1.1).
const MIXED_SESSION_PROB: f64 = 0.15;

fn draw_session_start(samplers: &SessionSamplers, day: u32, rng: &mut impl Rng) -> u64 {
    let hour = samplers.hour_of_day.sample(rng) as u64;
    let within_hour_ms = (rng.random::<f64>() * 3_600_000.0) as u64;
    day as u64 * 86_400_000 + hour * 3_600_000 + within_hour_ms
}

fn draw_session_file_count(samplers: &SessionSamplers, rng: &mut impl Rng) -> u64 {
    samplers.files_per_session.sample(rng) as u64
}

/// Draws one file size jittered around the session's typical size (σ of
/// ln ≈ 0.3: same-camera photos vary by tens of percent, not decades).
fn draw_file_size_around(session_scale: f64, rng: &mut impl Rng) -> u64 {
    let s = mcs_stats::rng::LogNormal::from_median(session_scale.max(1_000.0), 0.15).sample(rng);
    (s.round() as u64).max(1_000) // at least 1 KB: empty files don't transfer
}

fn pick_device(user: &UserProfile, rng: &mut impl Rng) -> (u64, DeviceType) {
    let mobile: Vec<_> = user
        .devices
        .iter()
        .filter(|d| d.device_type.is_mobile())
        .collect();
    let pc = user
        .devices
        .iter()
        .find(|d| d.device_type == DeviceType::Pc);
    match (mobile.is_empty(), pc) {
        (true, Some(p)) => (p.id, p.device_type),
        (false, Some(p)) if rng.random::<f64>() < PC_SESSION_PROB => (p.id, p.device_type),
        (false, _) => {
            let d = mobile[rng.random_range(0..mobile.len())];
            (d.id, d.device_type)
        }
        (true, None) => unreachable!("users always have at least one device"),
    }
}

/// Share of a mobile+PC user's sessions that run on the PC client.
const PC_SESSION_PROB: f64 = 0.40;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::build_population;
    use mcs_stats::rng::stream_rng;

    fn setup() -> (TraceConfig, SessionSamplers, Vec<UserProfile>) {
        let cfg = TraceConfig::small(42);
        let samplers = SessionSamplers::new(&cfg);
        let users = build_population(&cfg);
        (cfg, samplers, users)
    }

    #[test]
    fn budgets_are_fully_planned() {
        let (cfg, samplers, users) = setup();
        let mut rng = stream_rng(1, 1);
        for user in users.iter().take(300) {
            let plans = plan_user_sessions(&cfg, &samplers, user, &mut rng);
            let stored: u64 = plans
                .iter()
                .flat_map(|p| &p.files)
                .filter(|f| f.direction == Direction::Store)
                .count() as u64;
            let retrieved: u64 = plans
                .iter()
                .flat_map(|p| &p.files)
                .filter(|f| f.direction == Direction::Retrieve)
                .count() as u64;
            assert_eq!(stored, user.store_files, "user {}", user.user_id);
            assert_eq!(retrieved, user.retrieve_files, "user {}", user.user_id);
        }
    }

    #[test]
    fn sessions_are_time_ordered_and_in_horizon() {
        let (cfg, samplers, users) = setup();
        let mut rng = stream_rng(2, 1);
        for user in users.iter().take(200) {
            let plans = plan_user_sessions(&cfg, &samplers, user, &mut rng);
            for w in plans.windows(2) {
                assert!(w[0].start_ms <= w[1].start_ms);
            }
            for p in &plans {
                assert!(p.start_ms < cfg.horizon_ms());
            }
        }
    }

    #[test]
    fn oneshot_users_active_one_day_only() {
        let (cfg, samplers, users) = setup();
        let mut rng = stream_rng(3, 1);
        for user in users.iter().filter(|u| u.oneshot).take(100) {
            let plans = plan_user_sessions(&cfg, &samplers, user, &mut rng);
            let days: std::collections::HashSet<u64> =
                plans.iter().map(|p| p.start_ms / 86_400_000).collect();
            assert!(days.len() <= 1, "one-shot user on {} days", days.len());
            if let Some(&d) = days.iter().next() {
                assert_eq!(d as u32, user.first_day);
            }
        }
    }

    #[test]
    fn devices_belong_to_user() {
        let (cfg, samplers, users) = setup();
        let mut rng = stream_rng(4, 1);
        for user in users.iter().take(200) {
            let ids: Vec<u64> = user.devices.iter().map(|d| d.id).collect();
            for p in plan_user_sessions(&cfg, &samplers, user, &mut rng) {
                assert!(ids.contains(&p.device_id));
            }
        }
    }

    #[test]
    fn occasional_users_store_under_one_mb() {
        let (cfg, samplers, users) = setup();
        let mut rng = stream_rng(5, 1);
        for user in users
            .iter()
            .filter(|u| u.class == UserClass::Occasional)
            .take(100)
        {
            let plans = plan_user_sessions(&cfg, &samplers, user, &mut rng);
            let total: u64 = plans
                .iter()
                .map(|p| p.store_bytes() + p.retrieve_bytes())
                .sum();
            assert!(total < 1_000_000, "occasional user moved {total} bytes");
        }
    }

    #[test]
    fn session_type_mix_roughly_write_dominated() {
        let (cfg, samplers, users) = setup();
        let mut rng = stream_rng(6, 1);
        let mut store_only = 0u64;
        let mut retrieve_only = 0u64;
        let mut mixed = 0u64;
        for user in &users {
            for p in plan_user_sessions(&cfg, &samplers, user, &mut rng) {
                let s = p.store_bytes() > 0;
                let r = p.retrieve_bytes() > 0;
                match (s, r) {
                    (true, false) => store_only += 1,
                    (false, true) => retrieve_only += 1,
                    (true, true) => mixed += 1,
                    (false, false) => unreachable!("empty session planned"),
                }
            }
        }
        let total = (store_only + retrieve_only + mixed) as f64;
        let fs = store_only as f64 / total;
        let fm = mixed as f64 / total;
        assert!(fs > 0.55, "store-only fraction {fs}");
        assert!(fm < 0.08, "mixed fraction {fm}");
    }

    #[test]
    fn mirror_allocation_shapes_match() {
        let store = vec![10u64, 0, 30, 60];
        let ret = mirror_allocation(10, &store);
        assert_eq!(ret.iter().sum::<u64>(), 10);
        assert_eq!(ret[1], 0);
        assert!(ret[3] >= ret[2]);
    }

    #[test]
    fn allocate_budget_conserves_total() {
        let mut rng = stream_rng(7, 1);
        for total in [0u64, 1, 7, 100, 12345] {
            for days in [1usize, 2, 5, 7] {
                let alloc = allocate_budget(total, days, &mut rng);
                assert_eq!(alloc.len(), days);
                assert_eq!(alloc.iter().sum::<u64>(), total);
            }
        }
    }

    #[test]
    fn weekend_helper() {
        assert!(!is_weekend(0)); // Monday
        assert!(!is_weekend(4)); // Friday
        assert!(is_weekend(5)); // Saturday
        assert!(is_weekend(6)); // Sunday
        assert!(!is_weekend(7)); // next Monday
    }
}
