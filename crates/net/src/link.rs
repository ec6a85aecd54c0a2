//! Bottleneck-link model: serialization at a finite rate, propagation
//! delay, a drop-tail buffer, and optional random loss.
//!
//! One [`Link`] models one direction. The §4.3 discussion needs the buffer:
//! disabling slow-start-after-idle lets a full 64 KB burst hit the
//! bottleneck at once, and with a finite drop-tail queue the tail of the
//! burst is lost — exactly the failure mode the paper warns about.

use mcs_stats::rng::Rng;

use mcs_faults::{ConfigError, Windows};
use mcs_sim::{Time, SEC};

/// Link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Serialization rate, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay, µs.
    pub delay: Time,
    /// Drop-tail buffer size, bytes (packets whose queueing backlog would
    /// exceed this are dropped).
    pub buffer_bytes: u64,
    /// Independent random loss probability per packet (wireless noise).
    pub loss_prob: f64,
    /// Mean of an exponential per-packet extra delay, µs (wireless MAC
    /// contention / retry jitter). 0 disables it. Jitter inflates the
    /// RTT variance the RFC 6298 estimator sees, raising RTOs the way
    /// real mobile paths do.
    pub jitter_mean: Time,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            rate_bps: 20_000_000, // 20 Mbit/s home WiFi
            delay: 50_000,        // 50 ms one-way → 100 ms RTT
            // ~1.5× the bandwidth-delay product: a typical (slightly
            // bloated) home-router queue; a sub-BDP buffer makes every
            // slow-start overshoot a multi-loss catastrophe.
            buffer_bytes: 384 * 1024,
            loss_prob: 0.0,
            jitter_mean: 0,
        }
    }
}

impl LinkConfig {
    /// Checks the physical knobs ([`Link::new`] calls this first).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rate_bps == 0 {
            return Err(ConfigError::OutOfRange {
                what: "link rate",
                requirement: "must be positive",
            });
        }
        // Closed range: `loss_prob == 1.0` is a valid (if hostile) link —
        // every packet is offered and lost, which is exactly what a
        // saturating-interference scenario wants to model. The half-open
        // `(0.0..1.0)` check this replaces rejected it while the sampler
        // and tests could construct it.
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Err(ConfigError::OutOfRange {
                what: "loss probability",
                requirement: "must lie in [0,1]",
            });
        }
        Ok(())
    }
}

/// Point-in-time copy of a link's conservation counters
/// (`delivered + buffer_drops + random_drops + blackout_drops == offered`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets dropped by the drop-tail buffer.
    pub buffer_drops: u64,
    /// Packets dropped by random loss.
    pub random_drops: u64,
    /// Packets dropped inside a blackout window.
    pub blackout_drops: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
}

impl LinkStats {
    /// Whether the conservation invariant holds.
    pub fn conserves(&self) -> bool {
        self.delivered + self.buffer_drops + self.random_drops + self.blackout_drops == self.offered
    }
}

/// Outcome of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// Packet will arrive at the far end at this time.
    Arrive(Time),
    /// Dropped (buffer overflow or random loss).
    Drop,
}

/// One direction of a bottleneck link.
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    /// Time the serializer frees up.
    busy_until: Time,
    /// Scheduled blackout windows (µs): while one covers `now`, every
    /// offered packet is dropped on the floor.
    blackouts: Windows,
    /// Packets offered to the link (delivered + every drop class).
    pub offered: u64,
    /// Packets dropped by the buffer.
    pub buffer_drops: u64,
    /// Packets dropped by random loss.
    pub random_drops: u64,
    /// Packets dropped inside a blackout window.
    pub blackout_drops: u64,
    /// Packets delivered.
    pub delivered: u64,
}

impl Link {
    /// Creates an idle link. Rejects a zero rate or an out-of-range loss
    /// probability instead of panicking.
    pub fn new(cfg: LinkConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            busy_until: 0,
            blackouts: Windows::empty(),
            offered: 0,
            buffer_drops: 0,
            random_drops: 0,
            blackout_drops: 0,
            delivered: 0,
        })
    }

    /// Installs blackout windows (µs on the simulation clock). Packets
    /// already serialized before a window opens still arrive — the window
    /// kills what is *offered* during it, not what is in flight.
    pub fn set_blackouts(&mut self, blackouts: Windows) {
        self.blackouts = blackouts;
    }

    /// Configuration in force.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Snapshot of the conservation counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            offered: self.offered,
            buffer_drops: self.buffer_drops,
            random_drops: self.random_drops,
            blackout_drops: self.blackout_drops,
            delivered: self.delivered,
        }
    }

    /// Serialization time of `bytes` at the link rate, µs.
    fn serialization_time(&self, bytes: u64) -> Time {
        (bytes * 8).saturating_mul(SEC) / self.cfg.rate_bps
    }

    /// Offers a packet at `now`; returns when it arrives, or `Drop`.
    ///
    /// Conservation invariant: after any call sequence,
    /// `delivered + buffer_drops + random_drops + blackout_drops == offered`.
    pub fn transmit(&mut self, now: Time, bytes: u64, rng: &mut impl Rng) -> Transmit {
        self.offered += 1;
        // A blacked-out link drops everything offered to it, before the
        // buffer even sees the packet (the path is down, not congested).
        // The serializer state is untouched: packets queued before the
        // window opened keep draining and still deliver.
        if self.blackouts.contains(now) {
            self.blackout_drops += 1;
            return Transmit::Drop;
        }
        // Backlog = data already queued but not yet serialized.
        let backlog_time = self.busy_until.saturating_sub(now);
        let backlog_bytes = backlog_time.saturating_mul(self.cfg.rate_bps) / (8 * SEC);
        if backlog_bytes + bytes > self.cfg.buffer_bytes {
            self.buffer_drops += 1;
            return Transmit::Drop;
        }
        if self.cfg.loss_prob > 0.0 && rng.random::<f64>() < self.cfg.loss_prob {
            // The packet still occupies the serializer (it is lost after
            // transmission, e.g. on the air), which is the conservative
            // choice for throughput.
            self.busy_until = self.busy_until.max(now) + self.serialization_time(bytes);
            self.random_drops += 1;
            return Transmit::Drop;
        }
        let start = self.busy_until.max(now);
        self.busy_until = start.saturating_add(self.serialization_time(bytes));
        self.delivered += 1;
        let jitter = if self.cfg.jitter_mean > 0 {
            let u: f64 = rng.random::<f64>().max(1e-12);
            (-(self.cfg.jitter_mean as f64) * u.ln()) as Time
        } else {
            0
        };
        Transmit::Arrive(
            self.busy_until
                .saturating_add(self.cfg.delay)
                .saturating_add(jitter),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::stream_rng;

    fn no_loss(rate_bps: u64, delay: Time, buffer: u64) -> Link {
        Link::new(LinkConfig {
            rate_bps,
            delay,
            buffer_bytes: buffer,
            loss_prob: 0.0,
            jitter_mean: 0,
        })
        .unwrap()
    }

    #[test]
    fn serialization_and_delay() {
        let mut l = no_loss(8_000_000, 10_000, 1 << 20); // 1 MB/s
        let mut rng = stream_rng(1, 0);
        // 1000 bytes at 1 MB/s = 1000 µs + 10 ms delay.
        match l.transmit(0, 1000, &mut rng) {
            Transmit::Arrive(t) => assert_eq!(t, 11_000),
            Transmit::Drop => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = no_loss(8_000_000, 0, 1 << 20);
        let mut rng = stream_rng(2, 0);
        let t1 = match l.transmit(0, 1000, &mut rng) {
            Transmit::Arrive(t) => t,
            _ => panic!(),
        };
        let t2 = match l.transmit(0, 1000, &mut rng) {
            Transmit::Arrive(t) => t,
            _ => panic!(),
        };
        assert_eq!(t2 - t1, 1000, "second packet serialises after the first");
    }

    #[test]
    fn buffer_overflow_drops_tail() {
        // Tiny buffer: 3000 bytes.
        let mut l = no_loss(8_000_000, 0, 3000);
        let mut rng = stream_rng(3, 0);
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.transmit(0, 1000, &mut rng) {
                Transmit::Arrive(_) => delivered += 1,
                Transmit::Drop => dropped += 1,
            }
        }
        assert!((3..=4).contains(&delivered), "delivered {delivered}");
        assert_eq!(delivered + dropped, 10);
        assert_eq!(l.buffer_drops, dropped);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = no_loss(8_000_000, 0, 2000);
        let mut rng = stream_rng(4, 0);
        assert!(matches!(l.transmit(0, 1000, &mut rng), Transmit::Arrive(_)));
        assert!(matches!(l.transmit(0, 1000, &mut rng), Transmit::Arrive(_)));
        assert!(matches!(l.transmit(0, 1000, &mut rng), Transmit::Drop));
        // 2 ms later the queue has drained; room again.
        assert!(matches!(
            l.transmit(2000, 1000, &mut rng),
            Transmit::Arrive(_)
        ));
    }

    #[test]
    fn jitter_adds_mean_extra_delay() {
        let mut l = Link::new(LinkConfig {
            rate_bps: 1_000_000_000,
            delay: 10_000,
            buffer_bytes: 1 << 30,
            loss_prob: 0.0,
            jitter_mean: 5_000,
        })
        .unwrap();
        let mut rng = stream_rng(11, 0);
        let n = 20_000u64;
        let mut extra_sum = 0f64;
        for i in 0..n {
            let now = i * 1_000_000; // idle link each time
            match l.transmit(now, 100, &mut rng) {
                Transmit::Arrive(at) => {
                    let base = now + l.serialization_time(100) + 10_000;
                    assert!(at >= base);
                    extra_sum += (at - base) as f64;
                }
                Transmit::Drop => panic!("no loss configured"),
            }
        }
        let mean_extra = extra_sum / n as f64;
        assert!(
            (mean_extra - 5_000.0).abs() < 300.0,
            "mean jitter {mean_extra}"
        );
    }

    #[test]
    fn random_loss_rate() {
        let mut l = Link::new(LinkConfig {
            rate_bps: 1_000_000_000,
            delay: 0,
            buffer_bytes: 1 << 30,
            loss_prob: 0.1,
            jitter_mean: 0,
        })
        .unwrap();
        let mut rng = stream_rng(5, 0);
        let n = 20_000;
        let mut drops = 0;
        for i in 0..n {
            if matches!(l.transmit(i * 100, 1000, &mut rng), Transmit::Drop) {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "loss rate {rate}");
        assert_eq!(l.random_drops, drops);
    }

    #[test]
    fn bad_configs_rejected_not_panicked() {
        assert!(Link::new(LinkConfig {
            rate_bps: 0,
            ..LinkConfig::default()
        })
        .is_err());
        assert!(Link::new(LinkConfig {
            loss_prob: 1.5,
            ..LinkConfig::default()
        })
        .is_err());
        assert!(Link::new(LinkConfig {
            loss_prob: -0.1,
            ..LinkConfig::default()
        })
        .is_err());
        assert!(Link::new(LinkConfig {
            loss_prob: f64::NAN,
            ..LinkConfig::default()
        })
        .is_err());
        assert!(Link::new(LinkConfig::default()).is_ok());
    }

    #[test]
    fn loss_prob_one_is_a_valid_saturated_link() {
        // Regression (pre-PR failure): `validate` used the half-open range
        // `(0.0..1.0)`, rejecting the boundary value `loss_prob: 1.0` that
        // the constructors and tests are entitled to build — a fully lossy
        // link is the legitimate "saturating interference" corner of the
        // profile space. The closed range accepts it, and every offered
        // packet books as a random drop with conservation intact.
        let mut l = Link::new(LinkConfig {
            loss_prob: 1.0,
            ..LinkConfig::default()
        })
        .expect("loss_prob 1.0 lies in the closed range [0,1]");
        let mut rng = stream_rng(9, 0);
        for i in 0..50u64 {
            assert!(
                matches!(l.transmit(i * 100_000, 1000, &mut rng), Transmit::Drop),
                "a fully lossy link must drop every packet"
            );
        }
        assert_eq!(l.random_drops, 50);
        assert_eq!(l.delivered, 0);
        let s = l.stats();
        assert!(s.conserves());
        assert_eq!(s.offered, 50);
    }

    #[test]
    fn blackout_drops_offered_packets() {
        let mut l = no_loss(8_000_000, 0, 1 << 20);
        l.set_blackouts(Windows::new(vec![(1000, 2000)]));
        let mut rng = stream_rng(6, 0);
        assert!(matches!(l.transmit(0, 1000, &mut rng), Transmit::Arrive(_)));
        assert!(matches!(l.transmit(1500, 1000, &mut rng), Transmit::Drop));
        assert!(matches!(
            l.transmit(2000, 1000, &mut rng),
            Transmit::Arrive(_)
        ));
        assert_eq!(l.blackout_drops, 1);
        assert_eq!(l.delivered, 2);
        assert_eq!(l.offered, 3);
    }

    #[test]
    fn blackout_leaves_serializer_state_intact() {
        // A packet queued just before the window keeps its arrival time;
        // the blackout drop does not consume serializer capacity.
        let mut l = no_loss(8_000_000, 0, 1 << 20);
        l.set_blackouts(Windows::new(vec![(500, 1500)]));
        let mut rng = stream_rng(7, 0);
        let t1 = match l.transmit(0, 1000, &mut rng) {
            Transmit::Arrive(t) => t,
            Transmit::Drop => panic!("pre-blackout packet must deliver"),
        };
        assert_eq!(t1, 1000);
        assert!(matches!(l.transmit(600, 1000, &mut rng), Transmit::Drop));
        // Right after the window, the queue drained as if the dropped
        // packet never existed.
        let t2 = match l.transmit(1500, 1000, &mut rng) {
            Transmit::Arrive(t) => t,
            Transmit::Drop => panic!("post-blackout packet must deliver"),
        };
        assert_eq!(t2, 2500);
    }

    #[test]
    fn conservation_counters_add_up() {
        let mut l = no_loss(8_000_000, 0, 3000);
        l.set_blackouts(Windows::new(vec![(0, 500)]));
        let mut rng = stream_rng(8, 0);
        for i in 0..20u64 {
            let _ = l.transmit(i * 100, 1000, &mut rng);
        }
        assert_eq!(
            l.delivered + l.buffer_drops + l.random_drops + l.blackout_drops,
            l.offered
        );
        assert!(l.blackout_drops > 0);
        assert!(l.delivered > 0);
    }
}
