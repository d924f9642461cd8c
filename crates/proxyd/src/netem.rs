//! Deterministic adverse-network conditioner for the relay path.
//!
//! The paper's §5 end-to-end results are taken over dialup, DSL, and LAN
//! links; loopback benches hide exactly those effects. This module models
//! a link as a [`NetProfile`] — per-direction propagation delay (RTT/2),
//! seeded jitter, bandwidth caps, and an error rate — and a [`Conditioner`]
//! that turns a profile plus a seed into a **deterministic per-exchange
//! schedule**: exchange *i* always gets the same jitter sample and the
//! same fail/pass decision for the same seed, so adverse-network runs are
//! reproducible and A/B arms see identical schedules.
//!
//! Injected errors kill the relay's downstream connection mid-exchange
//! (after the request is read, before any response), which is exactly the
//! failure the proxy's retry-once upstream path must absorb.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// A named network profile: symmetric propagation delay, jitter bound,
/// per-direction bandwidth, and an exchange error rate.
#[derive(Debug, Clone)]
pub struct NetProfile {
    pub name: &'static str,
    /// Round-trip propagation delay; each direction gets half.
    pub rtt: Duration,
    /// Upper bound of the uniform per-exchange jitter (added to the RTT).
    pub jitter: Duration,
    /// Downstream (origin → proxy) bandwidth, bits per second. 0 = ∞.
    pub down_bps: u64,
    /// Upstream (proxy → origin) bandwidth, bits per second. 0 = ∞.
    pub up_bps: u64,
    /// Probability an exchange is killed mid-flight (0.0..=1.0).
    pub error_rate: f64,
}

impl NetProfile {
    /// 100 Mb/s switched LAN (§5's best case).
    pub fn lan() -> Self {
        NetProfile {
            name: "lan",
            rtt: Duration::from_millis(1),
            jitter: Duration::ZERO,
            down_bps: 100_000_000,
            up_bps: 100_000_000,
            error_rate: 0.0,
        }
    }

    /// Consumer ADSL, late-90s-to-2000s shape: 1.5 Mb/s down, 384 kb/s up.
    pub fn dsl() -> Self {
        NetProfile {
            name: "dsl",
            rtt: Duration::from_millis(40),
            jitter: Duration::from_millis(5),
            down_bps: 1_500_000,
            up_bps: 384_000,
            error_rate: 0.0,
        }
    }

    /// 56k modem (§5's worst case): high RTT, tiny bandwidth.
    pub fn dialup() -> Self {
        NetProfile {
            name: "dialup",
            rtt: Duration::from_millis(200),
            jitter: Duration::from_millis(30),
            down_bps: 56_000,
            up_bps: 33_600,
            error_rate: 0.0,
        }
    }

    /// Modern cellular: moderate RTT, plentiful bandwidth, jittery.
    pub fn mobile() -> Self {
        NetProfile {
            name: "mobile",
            rtt: Duration::from_millis(30),
            jitter: Duration::from_millis(20),
            down_bps: 12_000_000,
            up_bps: 5_000_000,
            error_rate: 0.0,
        }
    }

    /// Look up a profile by its CLI name.
    pub fn named(name: &str) -> Option<NetProfile> {
        match name {
            "lan" => Some(Self::lan()),
            "dsl" => Some(Self::dsl()),
            "dialup" => Some(Self::dialup()),
            "mobile" => Some(Self::mobile()),
            _ => None,
        }
    }

    /// All CLI profile names, in increasing-RTT order.
    pub fn names() -> [&'static str; 4] {
        ["lan", "mobile", "dsl", "dialup"]
    }

    /// Scale every time constant by `f` (bandwidth delays too: the caps
    /// are divided by `f`). `scaled(0.0)` is a zero-delay profile — handy
    /// for fast error-injection tests. The error rate is unchanged.
    pub fn scaled(mut self, f: f64) -> NetProfile {
        self.rtt = self.rtt.mul_f64(f);
        self.jitter = self.jitter.mul_f64(f);
        let scale_bps = |bps: u64| {
            if bps == 0 || f <= 0.0 {
                0
            } else {
                (bps as f64 / f) as u64
            }
        };
        self.down_bps = scale_bps(self.down_bps);
        self.up_bps = scale_bps(self.up_bps);
        self
    }

    /// Replace the error rate (builder-style).
    pub fn with_error_rate(mut self, rate: f64) -> NetProfile {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }
}

/// What a relay needs to build a [`Conditioner`]: the profile plus the
/// schedule seed.
#[derive(Debug, Clone)]
pub struct ShimConfig {
    pub profile: NetProfile,
    pub seed: u64,
}

/// The deterministic decision for one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangePlan {
    /// Kill the exchange instead of relaying it.
    pub fail: bool,
    /// This exchange's jitter sample (whole-RTT extra; split per direction).
    pub jitter: Duration,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform [0, 1) from 53 high bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded conditioner: profile + seed → reproducible schedule.
///
/// Exchange indices are drawn from an atomic counter, so concurrent relay
/// connections share one global schedule; the *plan for index i* is a pure
/// function of `(seed, i)` (see [`plan_for`](Self::plan_for)).
#[derive(Debug)]
pub struct Conditioner {
    profile: NetProfile,
    seed: u64,
    counter: AtomicU64,
    exchanges: AtomicU64,
    failures: AtomicU64,
    delay_us: AtomicU64,
    sleeps: AtomicU64,
}

/// Quiescent snapshot of a conditioner's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Exchanges that passed through (delayed but relayed).
    pub exchanges: u64,
    /// Exchanges killed by error injection.
    pub failures: u64,
    /// Total artificial delay inserted, microseconds.
    pub delay_us: u64,
    /// Delays applied: one per relayed request plus one per paced
    /// downstream write.
    pub sleeps: u64,
}

impl Conditioner {
    pub fn new(profile: NetProfile, seed: u64) -> Self {
        Conditioner {
            profile,
            seed,
            counter: AtomicU64::new(0),
            exchanges: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            delay_us: AtomicU64::new(0),
            sleeps: AtomicU64::new(0),
        }
    }

    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// The deterministic plan for exchange `index` under this seed.
    pub fn plan_for(&self, index: u64) -> ExchangePlan {
        let r = splitmix64(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let fail = unit(splitmix64(r)) < self.profile.error_rate;
        ExchangePlan {
            fail,
            jitter: self.profile.jitter.mul_f64(unit(r)),
        }
    }

    /// Claim the next exchange index and its plan; counts the outcome.
    pub fn next_plan(&self) -> ExchangePlan {
        let i = self.counter.fetch_add(1, Relaxed);
        let plan = self.plan_for(i);
        if plan.fail {
            self.failures.fetch_add(1, Relaxed);
        } else {
            self.exchanges.fetch_add(1, Relaxed);
        }
        plan
    }

    /// Proxy→origin direction delay for a request of `bytes` wire bytes.
    pub fn up_delay(&self, plan: &ExchangePlan, bytes: usize) -> Duration {
        self.direction_delay(plan, bytes, self.profile.up_bps)
    }

    /// Origin→proxy direction delay for a response of `bytes` wire bytes.
    pub fn down_delay(&self, plan: &ExchangePlan, bytes: usize) -> Duration {
        self.direction_delay(plan, bytes, self.profile.down_bps)
    }

    fn direction_delay(&self, plan: &ExchangePlan, bytes: usize, bps: u64) -> Duration {
        let mut d = self.profile.rtt / 2 + plan.jitter / 2;
        if bps > 0 {
            d += Duration::from_secs_f64(bytes as f64 * 8.0 / bps as f64);
        }
        d
    }

    /// Sleep for `d` and account it.
    pub fn apply(&self, d: Duration) {
        self.delay_us.fetch_add(d.as_micros() as u64, Relaxed);
        self.sleeps.fetch_add(1, Relaxed);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    pub fn stats(&self) -> ShimStats {
        ShimStats {
            exchanges: self.exchanges.load(Relaxed),
            failures: self.failures.load(Relaxed),
            delay_us: self.delay_us.load(Relaxed),
            sleeps: self.sleeps.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_resolve() {
        for name in NetProfile::names() {
            let p = NetProfile::named(name).unwrap();
            assert_eq!(p.name, name);
        }
        assert!(NetProfile::named("carrier-pigeon").is_none());
        // names() is ordered by RTT.
        let rtts: Vec<Duration> = NetProfile::names()
            .iter()
            .map(|n| NetProfile::named(n).unwrap().rtt)
            .collect();
        assert!(rtts.windows(2).all(|w| w[0] <= w[1]), "{rtts:?}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Conditioner::new(NetProfile::dsl().with_error_rate(0.3), 7);
        let b = Conditioner::new(NetProfile::dsl().with_error_rate(0.3), 7);
        let sched_a: Vec<ExchangePlan> = (0..256).map(|i| a.plan_for(i)).collect();
        let sched_b: Vec<ExchangePlan> = (0..256).map(|i| b.plan_for(i)).collect();
        assert_eq!(sched_a, sched_b);
        // A different seed diverges (jitter is continuous; 256 identical
        // samples from a different stream would be astronomical luck).
        let c = Conditioner::new(NetProfile::dsl().with_error_rate(0.3), 8);
        let sched_c: Vec<ExchangePlan> = (0..256).map(|i| c.plan_for(i)).collect();
        assert_ne!(sched_a, sched_c);
    }

    #[test]
    fn error_rate_extremes() {
        let never = Conditioner::new(NetProfile::lan(), 1);
        assert!((0..500).all(|i| !never.plan_for(i).fail));
        let always = Conditioner::new(NetProfile::lan().with_error_rate(1.0), 1);
        assert!((0..500).all(|i| always.plan_for(i).fail));
    }

    #[test]
    fn delays_compose_latency_and_bandwidth() {
        let c = Conditioner::new(NetProfile::dialup(), 0);
        let plan = ExchangePlan {
            fail: false,
            jitter: Duration::ZERO,
        };
        // 56 kb/s: 7000 bytes/s; 700 bytes ≈ 100 ms on top of RTT/2.
        let d = c.down_delay(&plan, 700);
        assert!(d >= Duration::from_millis(199), "{d:?}");
        assert!(d <= Duration::from_millis(201), "{d:?}");
        // Zero-bandwidth sentinel means no serialization delay.
        let inf = Conditioner::new(
            NetProfile {
                down_bps: 0,
                ..NetProfile::dialup()
            },
            0,
        );
        assert_eq!(inf.down_delay(&plan, 1 << 20), Duration::from_millis(100));
    }

    #[test]
    fn scaling_shrinks_time_not_structure() {
        let p = NetProfile::dialup().scaled(0.1);
        assert_eq!(p.rtt, Duration::from_millis(20));
        assert_eq!(p.down_bps, 560_000);
        let z = NetProfile::dialup().scaled(0.0);
        assert_eq!(z.rtt, Duration::ZERO);
        assert_eq!(z.down_bps, 0, "zero scale disables bandwidth delays");
    }

    #[test]
    fn next_plan_counts_outcomes() {
        let c = Conditioner::new(NetProfile::lan().with_error_rate(1.0), 3);
        for _ in 0..5 {
            assert!(c.next_plan().fail);
        }
        let s = c.stats();
        assert_eq!(s.failures, 5);
        assert_eq!(s.exchanges, 0);
    }
}
