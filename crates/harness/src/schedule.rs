//! The one seeded fault-schedule generator. A leg says *where* its
//! faults should land ([`SiteWeights`]); how a schedule is drawn — one
//! or two rules, bounded more often than not, decisions a pure function
//! of the case RNG — is the same everywhere.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};

/// Where a leg's schedules aim.
pub struct SiteWeights {
    /// The faultpoint sites on the leg's path; rules draw uniformly.
    pub sites: &'static [&'static str],
    /// `(n, p)`: with probability `p` the first rule draws from the
    /// first `n` sites only — the leg's own sites, listed first, so they
    /// are exercised constantly rather than occasionally.
    pub favoured: (usize, f64),
    /// Out of ten: error-return, panic, delay, cancel, budget-trip.
    pub kinds: [u32; 5],
    /// Rules skip up to this many hits first, so a pipeline gets partway
    /// in before the fault lands mid-stream.
    pub max_skip: u64,
}

/// Derive a schedule from a case RNG: one or two rules over the leg's
/// sites, error-class kinds most common, firing bounded three times in
/// four (a bounded rule is what makes "correct after retry" reachable).
pub fn gen_schedule(rng: &mut StdRng, seed: u64, weights: &SiteWeights) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed);
    let (favoured, p) = weights.favoured;
    for rule_no in 0..rng.gen_range(1..3u32) {
        let site = if rule_no == 0 && p > 0.0 && rng.gen_bool(p) {
            // (A single favoured site needs no draw.)
            weights.sites[if favoured > 1 {
                rng.gen_range(0..favoured)
            } else {
                0
            }]
        } else {
            weights.sites[rng.gen_range(0..weights.sites.len())]
        };
        // Walk the kind weights with one roll out of ten.
        let mut roll = rng.gen_range(0..10u32);
        let mut pick = weights.kinds.len() - 1;
        for (i, weight) in weights.kinds.iter().enumerate() {
            if roll < *weight {
                pick = i;
                break;
            }
            roll -= weight;
        }
        let kind = match pick {
            0 => FaultKind::ErrorReturn,
            1 => FaultKind::Panic,
            2 => FaultKind::Delay(Duration::from_millis(rng.gen_range(1..4))),
            3 => FaultKind::Cancel,
            _ => FaultKind::BudgetTrip,
        };
        let mut rule = FaultRule::new(site, kind)
            .one_in(rng.gen_range(1..6))
            .skip_first(rng.gen_range(0..weights.max_skip));
        if rng.gen_range(0..4u32) > 0 {
            rule = rule.max_fires(rng.gen_range(1..4));
        }
        schedule = schedule.rule(rule);
    }
    schedule
}

/// Does the schedule inject panics? Then `err:XQRL0000` is a legal
/// ending (see [`crate::verdict::Contract::Faulted`]).
pub fn panics_scheduled(schedule: &FaultSchedule) -> bool {
    schedule
        .rules
        .iter()
        .any(|r| matches!(r.kind, FaultKind::Panic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedules_are_deterministic_per_seed_and_stay_on_the_legs_sites() {
        for weights in [
            &crate::chaos::SITES,
            &crate::pubsub::SITES,
            &crate::ingest::SITES,
        ] {
            let mk = |seed: u64| {
                let mut rng = StdRng::seed_from_u64(seed);
                gen_schedule(&mut rng, seed, weights)
                    .rules
                    .iter()
                    .map(|r| (r.site.clone(), r.kind, r.one_in, r.skip_first, r.max_fires))
                    .collect::<Vec<_>>()
            };
            assert_eq!(mk(7), mk(7));
            assert_ne!(mk(7), mk(8));
            for seed in 0..200 {
                for (site, kind, ..) in mk(seed) {
                    assert!(weights.sites.contains(&site.as_str()), "{site}");
                    assert!(
                        weights.kinds[4] > 0 || kind != FaultKind::BudgetTrip,
                        "weight 0 means never"
                    );
                }
            }
        }
    }
}
