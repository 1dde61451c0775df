//! Deterministic fault injection for exercising containment paths.
//!
//! The estimator's fault-isolation story (per-job containment, panic-safe
//! pools, cohort eviction) is only trustworthy if every failure path is
//! *executed*, not just written. This module is the shim that does it:
//! instrumented code calls [`probe`] (at sites that cannot return an
//! error: stage folds, pass boundaries) or [`injected`] (at sites that
//! already return a `Result`: pass finishers, task starts), naming the
//! site and a stable per-copy key, and the globally installed
//! [`FaultPlan`] decides — purely from `(seed, site, key, hit_count)` —
//! whether that exact call panics, reports an error, or sleeps.
//!
//! Determinism is the point: a plan fires at the *k*-th probe of a given
//! `(site, key)` pair no matter how work is scheduled across workers,
//! shards, or cohort groupings, because the hit counters are keyed by
//! logical identity rather than by thread or wall clock. The per-copy
//! fault key is the copy's derived seed ([`crate::main_copy_seed`] /
//! [`crate::ideal_copy_seed`] / the dynamic equivalent), which is the same
//! in a fused cohort, in a retry attempt, and in a standalone sharded run
//! — so a seeded sweep reproduces the same faults at any worker count,
//! and containment tests can assert bit-identical survivors everywhere.
//!
//! ## Zero cost when disabled
//!
//! Like `degentri_obs::NoopRecorder`, the disabled configuration
//! monomorphizes away: without the `fault-inject` cargo feature,
//! [`ENABLED`] is `false` and [`probe`]/[`injected`] are `#[inline]`
//! empty bodies, so release builds carry no branches, no locks, and no
//! counters on the hot path. The bench suite gates this (faults-disabled
//! fused throughput ≥ 0.99× the previous baseline).

use std::fmt;

/// `true` when the crate is compiled with the `fault-inject` feature;
/// instrumented code may gate argument computation on this constant.
pub const ENABLED: bool = cfg!(feature = "fault-inject");

/// Named locations where faults can be injected.
///
/// The enum is always compiled (error variants embed it) even when the
/// injection machinery itself is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Starting a retry attempt, before any work.
    TaskStart,
    /// A fused-cohort pass boundary, before the sweep for that pass runs.
    PassBoundary,
    /// Inside the main estimator's cohort fold (per chunk, per copy).
    MainFold,
    /// The main estimator's `finish_pass` (per pass, per copy).
    MainFinish,
    /// Inside the turnstile estimator's sketch-bank fold (per chunk).
    BankFold,
    /// The turnstile estimator's `finish_pass` (per pass, per copy).
    DynamicFinish,
}

impl FaultSite {
    /// All sites, for sweep-style tests.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::TaskStart,
        FaultSite::PassBoundary,
        FaultSite::MainFold,
        FaultSite::MainFinish,
        FaultSite::BankFold,
        FaultSite::DynamicFinish,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::TaskStart => "task_start",
            FaultSite::PassBoundary => "pass_boundary",
            FaultSite::MainFold => "main_fold",
            FaultSite::MainFinish => "main_finish",
            FaultSite::BankFold => "bank_fold",
            FaultSite::DynamicFinish => "dynamic_finish",
        }
    }

    /// Dense discriminant used in the keyed hash.
    fn ordinal(self) -> u64 {
        self as u64
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a panic (exercises `catch_unwind` containment).
    Panic,
    /// Report a typed error (`EstimatorError::Injected` /
    /// `DynamicError::Injected`). At sites that cannot return an error
    /// this behaves like [`FaultKind::Panic`].
    Error,
    /// Sleep for the given number of milliseconds (exercises deadlines).
    DelayMillis(u64),
    /// Transient failure: report a typed error on the first `n` matching
    /// hits (counted from the rule's `after_hits`), then succeed forever.
    /// Only meaningful inside a [`FaultRule`]; [`FaultPlan::decide`]
    /// surfaces it as [`FaultKind::Error`] while the window is open, so a
    /// retry that re-probes the same `(site, key)` past the window
    /// recovers — exactly the shape a recovery layer must handle. A large
    /// `n` models a persistent fault that outlives any retry budget.
    FailTimes(u64),
}

/// One targeted injection rule: fire `kind` on the `(after_hits + 1)`-th
/// probe of `site` whose key matches (`key: None` matches every key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Site the rule applies to.
    pub site: FaultSite,
    /// Per-copy fault key to match, or `None` for any key.
    pub key: Option<u64>,
    /// Number of matching probes to let through before firing.
    pub after_hits: u64,
    /// What to do when the rule fires.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
///
/// Two composable modes: explicit [`FaultRule`]s (fire exactly here), and
/// a seeded stochastic mode where every probe fires with probability
/// `1/period`, decided by `hash(seed, site, key, hit_count)` — the same
/// keyed-counter construction as the estimator's `RngMode::Counter`, so
/// sweeping seeds sweeps fault placements reproducibly. The stochastic
/// period can be overridden per site ([`site_periods`](Self::site_periods))
/// to shape where a soak concentrates its chaos.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the stochastic mode.
    pub seed: u64,
    /// Fire roughly one probe in `period` (0 disables the stochastic mode).
    pub period: u64,
    /// Per-site overrides of [`period`](Self::period): a site listed here
    /// fires at `1/its own period` (0 = never stochastically at that
    /// site); unlisted sites keep the plan-wide period.
    pub site_periods: Vec<(FaultSite, u64)>,
    /// Targeted rules, checked before the stochastic draw.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan containing only targeted rules.
    pub fn targeted(rules: Vec<FaultRule>) -> Self {
        FaultPlan {
            seed: 0,
            period: 0,
            site_periods: Vec::new(),
            rules,
        }
    }

    /// A purely stochastic plan firing ~one probe in `period`.
    pub fn seeded(seed: u64, period: u64) -> Self {
        FaultPlan {
            seed,
            period,
            site_periods: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// A stochastic plan with an explicit per-site probability map: each
    /// `(site, period)` entry fires ~one probe in `period` at that site,
    /// and sites absent from the map never fire (the plan-wide period
    /// stays 0).
    pub fn seeded_sites(seed: u64, site_periods: Vec<(FaultSite, u64)>) -> Self {
        FaultPlan {
            seed,
            period: 0,
            site_periods,
            rules: Vec::new(),
        }
    }

    /// Overrides the stochastic period at one site (builder-style; last
    /// entry for a site wins because lookups scan front-to-back — this
    /// method replaces any earlier entry instead of appending a shadowed
    /// duplicate).
    pub fn with_site_period(mut self, site: FaultSite, period: u64) -> Self {
        if let Some(entry) = self.site_periods.iter_mut().find(|(s, _)| *s == site) {
            entry.1 = period;
        } else {
            self.site_periods.push((site, period));
        }
        self
    }

    /// A plan with a single targeted rule.
    pub fn single(site: FaultSite, key: u64, after_hits: u64, kind: FaultKind) -> Self {
        FaultPlan::targeted(vec![FaultRule {
            site,
            key: Some(key),
            after_hits,
            kind,
        }])
    }

    /// Decides whether the `hits`-th probe (0-based) of `(site, key)`
    /// fires, and with what kind. Pure function of its arguments. A
    /// [`FaultKind::FailTimes`] rule surfaces as [`FaultKind::Error`] for
    /// every hit inside its window, so probe sites need no special
    /// handling for transients.
    pub fn decide(&self, site: FaultSite, key: u64, hits: u64) -> Option<FaultKind> {
        for rule in &self.rules {
            if rule.site != site || rule.key.is_some_and(|k| k != key) {
                continue;
            }
            match rule.kind {
                FaultKind::FailTimes(n) => {
                    if hits >= rule.after_hits && hits < rule.after_hits.saturating_add(n) {
                        return Some(FaultKind::Error);
                    }
                }
                kind => {
                    if rule.after_hits == hits {
                        return Some(kind);
                    }
                }
            }
        }
        let period = self
            .site_periods
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(self.period, |&(_, p)| p);
        if period > 0 {
            let h = fault_hash(self.seed, site.ordinal(), key, hits);
            if h.is_multiple_of(period) {
                // Derive the kind from independent hash bits so a seed
                // sweep covers all three behaviors.
                return Some(match (h >> 32) % 4 {
                    0 => FaultKind::Panic,
                    1 | 2 => FaultKind::Error,
                    _ => FaultKind::DelayMillis(1 + (h >> 40) % 3),
                });
            }
        }
        None
    }
}

/// SplitMix64-style keyed mixer: avalanches `(seed, site, key, hits)`
/// into one word. Self-contained so plan decisions never drift when the
/// estimator's RNG constants are tuned.
fn fault_hash(seed: u64, site: u64, key: u64, hits: u64) -> u64 {
    let mut x = seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(key.rotate_left(17)).wrapping_add(hits);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(feature = "fault-inject")]
mod active {
    use super::{FaultKind, FaultPlan, FaultReport, FaultSite};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, PoisonError, RwLock};

    /// Installed plan + hit counters. One global: injection is a test
    /// harness, and plans are installed around whole engine runs.
    struct Harness {
        plan: Option<Arc<FaultPlan>>,
        hits: HashMap<(FaultSite, u64), u64>,
        report: FaultReport,
    }

    static HARNESS: RwLock<Option<Harness>> = RwLock::new(None);
    static INJECTED: AtomicU64 = AtomicU64::new(0);

    pub(super) fn decide(site: FaultSite, key: u64) -> Option<FaultKind> {
        // A fault fired *through* this lock can poison it (the panic
        // unwinds while a sibling thread holds the read path); recover
        // the guard rather than aborting the whole harness.
        let mut guard = HARNESS.write().unwrap_or_else(PoisonError::into_inner);
        let harness = guard.as_mut()?;
        let plan = harness.plan.clone()?;
        let hits = harness.hits.entry((site, key)).or_insert(0);
        let decision = plan.decide(site, key, *hits);
        *hits += 1;
        harness.report.probes[site.ordinal() as usize] += 1;
        if decision.is_some() {
            harness.report.fired[site.ordinal() as usize] += 1;
        }
        drop(guard);
        if decision.is_some() {
            INJECTED.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    pub fn install(plan: FaultPlan) {
        let mut guard = HARNESS.write().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(Harness {
            plan: Some(Arc::new(plan)),
            hits: HashMap::new(),
            report: FaultReport::default(),
        });
    }

    pub fn report() -> FaultReport {
        HARNESS
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|h| h.report)
            .unwrap_or_default()
    }

    pub fn clear() {
        let mut guard = HARNESS.write().unwrap_or_else(PoisonError::into_inner);
        *guard = None;
    }

    pub fn injected_count() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    /// Serializes tests that install plans: the harness is process-global,
    /// so concurrent `cargo test` threads must take turns.
    static PLAN_TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
        let _serial = PLAN_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        install(plan);
        struct ClearOnDrop;
        impl Drop for ClearOnDrop {
            fn drop(&mut self) {
                super::active::clear();
            }
        }
        let _clear = ClearOnDrop;
        f()
    }
}

/// Per-site injection accounting for the currently installed plan: how
/// many probes each site executed and how many of them fired. Counters
/// reset when a plan is (re-)installed, so a test scope sees exactly its
/// own run — the way a soak asserts that injection actually happened
/// rather than silently probing a site the workload never reaches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    probes: [u64; FaultSite::ALL.len()],
    fired: [u64; FaultSite::ALL.len()],
}

impl FaultReport {
    /// Probe executions at `site` (fired or not) under the current plan.
    pub fn probes_at(&self, site: FaultSite) -> u64 {
        self.probes[site.ordinal() as usize]
    }

    /// Faults fired at `site` under the current plan.
    pub fn fired_at(&self, site: FaultSite) -> u64 {
        self.fired[site.ordinal() as usize]
    }

    /// Probe executions across all sites.
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().sum()
    }

    /// Faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

/// Snapshot of the installed plan's per-site probe/fire counters. Empty
/// when no plan is installed or without the `fault-inject` feature.
#[inline(always)]
pub fn report() -> FaultReport {
    #[cfg(feature = "fault-inject")]
    {
        active::report()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        FaultReport::default()
    }
}

/// Installs a fault plan globally (replacing any previous plan and
/// resetting hit counters). No-op without the `fault-inject` feature.
#[inline(always)]
pub fn install(plan: FaultPlan) {
    #[cfg(feature = "fault-inject")]
    active::install(plan);
    #[cfg(not(feature = "fault-inject"))]
    let _ = plan;
}

/// Removes the installed fault plan. No-op without `fault-inject`.
#[inline(always)]
pub fn clear() {
    #[cfg(feature = "fault-inject")]
    active::clear();
}

/// Total faults injected since process start (all kinds). Always 0
/// without `fault-inject`.
#[inline(always)]
pub fn injected_count() -> u64 {
    #[cfg(feature = "fault-inject")]
    {
        active::injected_count()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        0
    }
}

/// Runs `f` with `plan` installed, clearing it afterwards (even on
/// panic) and serializing against other `with_plan` callers in the same
/// process. The intended way for tests to scope a plan.
#[cfg(feature = "fault-inject")]
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    active::with_plan(plan, f)
}

/// Fault probe for sites that cannot return an error (stage folds, pass
/// boundaries): a firing [`FaultKind::Panic`] or [`FaultKind::Error`]
/// panics (to be contained by the caller's `catch_unwind` layer), a
/// [`FaultKind::DelayMillis`] sleeps. Compiles to an empty body without
/// `fault-inject`.
#[inline(always)]
pub fn probe(site: FaultSite, key: u64) {
    #[cfg(feature = "fault-inject")]
    match active::decide(site, key) {
        None => {}
        Some(FaultKind::DelayMillis(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        // FailTimes never escapes decide() (it surfaces as Error), but the
        // match stays exhaustive so a new kind cannot be silently ignored.
        Some(FaultKind::Panic) | Some(FaultKind::Error) | Some(FaultKind::FailTimes(_)) => {
            panic!("injected fault at {site} (key {key:#018x})");
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = (site, key);
    }
}

/// Fault probe for sites that return a `Result`: returns `true` when the
/// caller should report a typed `Injected` error. A firing
/// [`FaultKind::Panic`] panics, a [`FaultKind::DelayMillis`] sleeps and
/// returns `false`. Compiles to `false` without `fault-inject`.
#[inline(always)]
pub fn injected(site: FaultSite, key: u64) -> bool {
    #[cfg(feature = "fault-inject")]
    {
        match active::decide(site, key) {
            None => false,
            Some(FaultKind::Error) | Some(FaultKind::FailTimes(_)) => true,
            Some(FaultKind::DelayMillis(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
            Some(FaultKind::Panic) => {
                panic!("injected fault at {site} (key {key:#018x})");
            }
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = (site, key);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_rules_fire_on_the_exact_hit() {
        let plan = FaultPlan::single(FaultSite::MainFold, 0xABCD, 2, FaultKind::Panic);
        assert_eq!(plan.decide(FaultSite::MainFold, 0xABCD, 0), None);
        assert_eq!(plan.decide(FaultSite::MainFold, 0xABCD, 1), None);
        assert_eq!(
            plan.decide(FaultSite::MainFold, 0xABCD, 2),
            Some(FaultKind::Panic)
        );
        assert_eq!(plan.decide(FaultSite::MainFold, 0xABCD, 3), None);
        // Different key or site: never fires.
        assert_eq!(plan.decide(FaultSite::MainFold, 0xABCE, 2), None);
        assert_eq!(plan.decide(FaultSite::BankFold, 0xABCD, 2), None);
    }

    #[test]
    fn wildcard_key_matches_every_key() {
        let plan = FaultPlan::targeted(vec![FaultRule {
            site: FaultSite::TaskStart,
            key: None,
            after_hits: 0,
            kind: FaultKind::Error,
        }]);
        assert_eq!(
            plan.decide(FaultSite::TaskStart, 1, 0),
            Some(FaultKind::Error)
        );
        assert_eq!(
            plan.decide(FaultSite::TaskStart, 99, 0),
            Some(FaultKind::Error)
        );
        assert_eq!(plan.decide(FaultSite::TaskStart, 1, 1), None);
    }

    #[test]
    fn seeded_mode_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 13);
        let b = FaultPlan::seeded(7, 13);
        let c = FaultPlan::seeded(8, 13);
        let mut fires_a = Vec::new();
        let mut fires_c = Vec::new();
        for hits in 0..200 {
            let da = a.decide(FaultSite::BankFold, 42, hits);
            assert_eq!(da, b.decide(FaultSite::BankFold, 42, hits));
            if da.is_some() {
                fires_a.push(hits);
            }
            if c.decide(FaultSite::BankFold, 42, hits).is_some() {
                fires_c.push(hits);
            }
        }
        // ~200/13 ≈ 15 expected fires; demand at least a few and that the
        // two seeds disagree somewhere.
        assert!(fires_a.len() >= 4, "too few fires: {fires_a:?}");
        assert_ne!(fires_a, fires_c);
    }

    #[test]
    fn fail_times_opens_a_window_then_heals() {
        let plan = FaultPlan::single(FaultSite::MainFinish, 7, 1, FaultKind::FailTimes(2));
        assert_eq!(plan.decide(FaultSite::MainFinish, 7, 0), None);
        // Hits 1 and 2 fail (surfacing as Error), hit 3 onwards succeeds.
        assert_eq!(
            plan.decide(FaultSite::MainFinish, 7, 1),
            Some(FaultKind::Error)
        );
        assert_eq!(
            plan.decide(FaultSite::MainFinish, 7, 2),
            Some(FaultKind::Error)
        );
        assert_eq!(plan.decide(FaultSite::MainFinish, 7, 3), None);
        // Other keys never match a keyed rule.
        assert_eq!(plan.decide(FaultSite::MainFinish, 8, 1), None);
        // A huge window models a persistent fault without overflow.
        let forever = FaultPlan::single(FaultSite::BankFold, 1, 0, FaultKind::FailTimes(u64::MAX));
        assert_eq!(
            forever.decide(FaultSite::BankFold, 1, u64::MAX - 1),
            Some(FaultKind::Error)
        );
    }

    #[test]
    fn site_periods_override_the_plan_wide_period() {
        let base = FaultPlan::seeded(11, 5);
        let shaped = FaultPlan::seeded(11, 5)
            .with_site_period(FaultSite::MainFold, 0)
            .with_site_period(FaultSite::BankFold, 2);
        let mut silenced = 0u64;
        let mut base_bank = 0u64;
        let mut shaped_bank = 0u64;
        for hits in 0..400 {
            // MainFold is silenced entirely by its 0 period.
            assert_eq!(shaped.decide(FaultSite::MainFold, 3, hits), None);
            if base.decide(FaultSite::MainFold, 3, hits).is_some() {
                silenced += 1;
            }
            // BankFold fires more often at period 2 than at period 5, and
            // unlisted sites keep the plan-wide behavior.
            base_bank += u64::from(base.decide(FaultSite::BankFold, 3, hits).is_some());
            shaped_bank += u64::from(shaped.decide(FaultSite::BankFold, 3, hits).is_some());
            assert_eq!(
                base.decide(FaultSite::TaskStart, 3, hits),
                shaped.decide(FaultSite::TaskStart, 3, hits)
            );
        }
        assert!(silenced > 0, "base plan should have fired at MainFold");
        assert!(shaped_bank > base_bank);
        // seeded_sites leaves unlisted sites silent (plan-wide period 0).
        let only = FaultPlan::seeded_sites(11, vec![(FaultSite::BankFold, 2)]);
        for hits in 0..400 {
            assert_eq!(only.decide(FaultSite::TaskStart, 3, hits), None);
        }
        // with_site_period replaces an earlier entry for the same site.
        let replaced = shaped.clone().with_site_period(FaultSite::BankFold, 7);
        assert_eq!(
            replaced
                .site_periods
                .iter()
                .filter(|(s, _)| *s == FaultSite::BankFold)
                .count(),
            1
        );
    }

    #[test]
    fn site_names_are_stable_and_dense() {
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(site.ordinal() as usize, i);
            assert!(!site.name().is_empty());
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn installed_plan_counts_hits_per_site_and_key() {
        with_plan(
            FaultPlan::single(FaultSite::MainFinish, 5, 1, FaultKind::Error),
            || {
                assert!(!injected(FaultSite::MainFinish, 5)); // hit 0
                assert!(!injected(FaultSite::MainFinish, 6)); // other key, hit 0
                assert!(injected(FaultSite::MainFinish, 5)); // hit 1 fires
                assert!(!injected(FaultSite::MainFinish, 5)); // hit 2
            },
        );
        // Cleared: nothing fires outside the scope.
        assert!(!injected(FaultSite::MainFinish, 5));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn report_counts_probes_and_fires_per_site() {
        let observed = with_plan(
            FaultPlan::single(FaultSite::DynamicFinish, 9, 1, FaultKind::FailTimes(2)),
            || {
                assert!(!injected(FaultSite::DynamicFinish, 9)); // hit 0
                assert!(injected(FaultSite::DynamicFinish, 9)); // hits 1-2 fire
                assert!(injected(FaultSite::DynamicFinish, 9));
                assert!(!injected(FaultSite::DynamicFinish, 9)); // healed
                probe(FaultSite::MainFold, 9); // silent site still counts probes
                report()
            },
        );
        assert_eq!(observed.probes_at(FaultSite::DynamicFinish), 4);
        assert_eq!(observed.fired_at(FaultSite::DynamicFinish), 2);
        assert_eq!(observed.probes_at(FaultSite::MainFold), 1);
        assert_eq!(observed.fired_at(FaultSite::MainFold), 0);
        assert_eq!(observed.total_probes(), 5);
        assert_eq!(observed.total_fired(), 2);
        // Outside the scope the harness is gone and the report is empty.
        assert_eq!(report(), FaultReport::default());
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn disabled_probes_are_inert() {
        const { assert!(!ENABLED) };
        probe(FaultSite::MainFold, 1);
        assert!(!injected(FaultSite::MainFinish, 1));
        assert_eq!(injected_count(), 0);
    }
}
