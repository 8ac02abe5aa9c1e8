//! Differential properties of the delta-driven chase engine against the
//! retained naive drivers, on seeded `dex-datagen` scenarios: same
//! success/failure classification, hom-equivalent (standard) or
//! isomorphic (α) results, and internally consistent `ChaseStats`.
//!
//! A failing case prints its seed; replay with
//! `DEX_PROP_SEED=<seed> cargo test -q --test differential_chase`.

use cwa_dex::prelude::*;
use dex_testkit::prop::{Gen, PropResult, Runner};

const CASES: usize = 64;

fn check(ok: bool, msg: &str) -> PropResult {
    if ok {
        Ok(())
    } else {
        Err(msg.to_owned())
    }
}

fn scenario(seed: u64) -> (Setting, Instance) {
    let d = cwa_dex::datagen::layered_setting(&cwa_dex::datagen::LayeredConfig {
        seed,
        layers: 2,
        with_egds: seed % 2 == 0,
        ..Default::default()
    });
    let s = cwa_dex::datagen::random_source(
        &d.source,
        &cwa_dex::datagen::SourceConfig {
            num_constants: 4,
            tuples_per_relation: 3,
            seed,
        },
    );
    (d, s)
}

/// The delta engine and the naive driver agree on every random weakly
/// acyclic scenario: hom-equivalent results on success, the same error
/// classification otherwise, and valid stats throughout.
#[test]
fn standard_chase_delta_vs_naive() {
    Runner::new(CASES).run(
        "standard_chase_delta_vs_naive",
        &Gen::new(|rng| rng.gen_range(0..10_000u64)),
        |&seed| {
            let (d, s) = scenario(seed);
            let budget = ChaseBudget::default();
            let fast = chase(&d, &s, &budget);
            let slow = chase_naive(&d, &s, &budget);
            match (fast, slow) {
                (Ok(f), Ok(n)) => {
                    check(
                        hom_equivalent(&f.target, &n.target),
                        "engine and naive results are not hom-equivalent",
                    )?;
                    check(
                        d.is_solution(&s, &f.target),
                        "engine result is not a solution",
                    )?;
                    f.stats
                        .validate()
                        .map_err(|e| format!("engine stats: {e}"))?;
                    n.stats.validate().map_err(|e| format!("naive stats: {e}"))
                }
                (Err(ChaseError::EgdConflict { .. }), Err(ChaseError::EgdConflict { .. })) => {
                    Ok(())
                }
                (
                    Err(ChaseError::BudgetExceeded { .. }),
                    Err(ChaseError::BudgetExceeded { .. }),
                ) => Ok(()),
                (f, n) => Err(format!(
                    "classification mismatch: engine {f:?} vs naive {n:?}"
                )),
            }
        },
    );
}

/// Outcome class of an α-chase run, with the two ways of reporting
/// non-termination (state cycle vs budget) identified: which one fires
/// first is a driver detail, not part of the α-chase contract.
fn outcome_class(o: &AlphaOutcome) -> &'static str {
    match o {
        AlphaOutcome::Success(_) => "success",
        AlphaOutcome::Failing { .. } => "failing",
        AlphaOutcome::BudgetExceeded { .. } | AlphaOutcome::CycleDetected { .. } => {
            "nonterminating"
        }
        // No deadline/cancel is armed in these scenarios.
        AlphaOutcome::Interrupted(_) => "interrupted",
    }
}

/// The α engine and the naive α driver classify every scenario the same
/// way under fresh α, and successful runs are isomorphic (each run mints
/// its own fresh nulls, so equality only holds up to renaming).
#[test]
fn alpha_chase_delta_vs_naive() {
    Runner::new(CASES).run(
        "alpha_chase_delta_vs_naive",
        &Gen::new(|rng| rng.gen_range(0..10_000u64)),
        |&seed| {
            let (d, s) = scenario(seed);
            let budget = ChaseBudget::probe();
            let mut alpha_fast = FreshAlpha::above(&s);
            let mut alpha_slow = FreshAlpha::above(&s);
            let fast = alpha_chase(&d, &s, &mut alpha_fast, &budget);
            let slow = alpha_chase_naive(&d, &s, &mut alpha_slow, &budget);
            check(
                outcome_class(&fast) == outcome_class(&slow),
                &format!(
                    "α classification mismatch: engine {} vs naive {}",
                    outcome_class(&fast),
                    outcome_class(&slow)
                ),
            )?;
            if let (AlphaOutcome::Success(f), AlphaOutcome::Success(n)) = (fast, slow) {
                check(
                    isomorphic(&f.target, &n.target),
                    "α engine and naive presolutions are not isomorphic",
                )?;
                check(
                    d.is_solution(&s, &f.target),
                    "α engine result is not a solution",
                )?;
                f.stats
                    .validate()
                    .map_err(|e| format!("α engine stats: {e}"))?;
                n.stats
                    .validate()
                    .map_err(|e| format!("α naive stats: {e}"))?;
            }
            Ok(())
        },
    );
}

/// On Example 2.1 the engine replays the paper's α₁ exactly: fixed α,
/// unique result (Lemma 4.5), independent of the trigger strategy.
#[test]
fn alpha_engine_matches_naive_on_fixed_alpha() {
    let d = parse_setting(
        "source { M/2, N/2 }
         target { E/2, F/2, G/2 }
         st {
           d1: M(x1,x2) -> E(x1,x2);
           d2: N(x,y) -> exists z1,z2 . E(x,z1) & F(x,z2);
         }
         t {
           d3: F(y,x) -> exists z . G(x,z);
           d4: F(x,y) & F(x,z) -> y = z;
         }",
    )
    .unwrap();
    let s = parse_instance("M(a,b). N(a,b). N(a,c).").unwrap();
    let j = |dep: usize, frontier: &[Value], body_only: &[Value], z: usize| Justification {
        dep,
        frontier: frontier.to_vec(),
        body_only: body_only.to_vec(),
        z_index: z,
    };
    let (a, b, c) = (Value::konst("a"), Value::konst("b"), Value::konst("c"));
    let entries = [
        (j(1, &[a], &[b], 0), Value::null(1)),
        (j(1, &[a], &[b], 1), Value::null(3)),
        (j(1, &[a], &[c], 0), Value::null(2)),
        (j(1, &[a], &[c], 1), Value::null(3)),
        (j(2, &[Value::null(3)], &[a], 0), Value::null(4)),
    ];
    let budget = ChaseBudget::default();
    let mut t1 = TableAlpha::new(entries.clone());
    let mut t2 = TableAlpha::new(entries);
    let fast = alpha_chase(&d, &s, &mut t1, &budget)
        .success()
        .expect("engine α₁ succeeds");
    let slow = alpha_chase_naive(&d, &s, &mut t2, &budget)
        .success()
        .expect("naive α₁ succeeds");
    // Same fixed α ⇒ the very same instance, not just an isomorphic one.
    assert_eq!(fast.target, slow.target);
}

/// The measured copy/partition/surrogate-key mapping at 16–48 constants
/// × 16–48 tuples per relation: the family whose egd fixpoint dominates
/// the chase, and which merges on nearly every seed.
fn keyed_scenario(seed: u64, constants: usize, tuples: usize) -> (Setting, Instance) {
    let d = cwa_dex::datagen::mapping_scenario(&cwa_dex::datagen::ScenarioConfig {
        copies: 2,
        partitions: 2,
        surrogates: 3,
        seed,
    });
    let s = cwa_dex::datagen::random_source(
        &d.source,
        &cwa_dex::datagen::SourceConfig {
            num_constants: constants,
            tuples_per_relation: tuples,
            seed,
        },
    );
    (d, s)
}

/// On the keyed family the delta engine and the naive driver reach
/// isomorphic targets with the same number of egd merges, and so do the
/// α engine and the naive α driver; every run's stats validate.
#[test]
fn keyed_mapping_delta_vs_naive() {
    Runner::new(32).run(
        "keyed_mapping_delta_vs_naive",
        &Gen::new(|rng| {
            (
                rng.gen_range(0..10_000u64),
                rng.gen_range(16..49usize),
                rng.gen_range(16..49usize),
            )
        }),
        |&(seed, constants, tuples)| {
            let (d, s) = keyed_scenario(seed, constants, tuples);
            let budget = ChaseBudget::default();
            let f = chase(&d, &s, &budget).map_err(|e| format!("engine: {e}"))?;
            let n = chase_naive(&d, &s, &budget).map_err(|e| format!("naive: {e}"))?;
            check(
                isomorphic(&f.target, &n.target),
                "engine and naive targets are not isomorphic",
            )?;
            check(
                f.stats.egd_steps == n.stats.egd_steps,
                &format!(
                    "egd steps: engine {} vs naive {}",
                    f.stats.egd_steps, n.stats.egd_steps
                ),
            )?;
            f.stats
                .validate()
                .map_err(|e| format!("engine stats: {e}"))?;
            n.stats
                .validate()
                .map_err(|e| format!("naive stats: {e}"))?;

            // Under fresh α a merged-away surrogate key comes straight
            // back, so most seeds are non-terminating for both drivers.
            let fast = alpha_chase(&d, &s, &mut FreshAlpha::above(&s), &ChaseBudget::probe());
            let slow = alpha_chase_naive(&d, &s, &mut FreshAlpha::above(&s), &ChaseBudget::probe());
            check(
                outcome_class(&fast) == outcome_class(&slow),
                &format!(
                    "α classification mismatch: engine {} vs naive {}",
                    outcome_class(&fast),
                    outcome_class(&slow)
                ),
            )?;
            if let (AlphaOutcome::Success(af), AlphaOutcome::Success(an)) = (fast, slow) {
                check(
                    isomorphic(&af.target, &an.target),
                    "α engine and naive presolutions are not isomorphic",
                )?;
                af.stats
                    .validate()
                    .map_err(|e| format!("α engine stats: {e}"))?;
                an.stats
                    .validate()
                    .map_err(|e| format!("α naive stats: {e}"))?;
            }
            Ok(())
        },
    );
}

/// The completeness case for the resumed egd scan, end to end: `s_key`
/// is scanned first and passes both S rows of key `a` clean. Only the
/// `r_key` merge re-appends the second S row under the surviving key,
/// and the violation it completes joins that row with the S row the
/// `s_key` cursors have already passed. The standard engine and `CanSol`
/// reach the naive driver's quotient; the α engine agrees with the naive
/// α driver.
#[test]
fn resumed_egd_scan_reaches_the_naive_quotient() {
    let d = parse_setting(
        "source { P/2 }
         target { R/2, S/2, T/2 }
         st { d: P(x,y) -> exists k,m . R(x,k) & S(k,m) & T(m,y); }
         t {
           s_key: S(k,m) & S(k,n) -> m = n;
           r_key: R(x,k) & R(x,l) -> k = l;
         }",
    )
    .unwrap();
    let s = parse_instance("P(a,b). P(a,c). P(e,f).").unwrap();
    let budget = ChaseBudget::default();
    let naive = chase_naive(&d, &s, &budget).unwrap();
    assert_eq!(naive.stats.egd_steps, 2);
    // Key a keeps one R and one S row, and both T rows.
    assert_eq!(naive.target.len(), 7);

    let fast = chase(&d, &s, &budget).unwrap();
    assert!(isomorphic(&fast.target, &naive.target));
    assert_eq!(fast.stats.egd_steps, naive.stats.egd_steps);
    fast.stats.validate().unwrap();

    // Fresh α re-fires the merged-away key's trigger, so both α drivers
    // must classify the run as non-terminating after merging.
    let probe = ChaseBudget::probe();
    let alpha_fast = alpha_chase(&d, &s, &mut FreshAlpha::above(&s), &probe);
    let alpha_naive = alpha_chase_naive(&d, &s, &mut FreshAlpha::above(&s), &probe);
    assert_eq!(outcome_class(&alpha_fast), "nonterminating");
    assert_eq!(outcome_class(&alpha_naive), "nonterminating");

    let can = cansol(&d, &s, &budget)
        .unwrap()
        .expect("egds-only target is in Proposition 5.4's first class");
    assert!(isomorphic(&can, &naive.target));
}
