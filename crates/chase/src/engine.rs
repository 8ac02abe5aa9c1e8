//! The delta-driven chase engine: semi-naive trigger discovery over
//! [`dex_core::DeltaCursor`] windows instead of the naive drivers'
//! per-step full rescan, with in-place egd merging through
//! [`dex_core::ValueUnionFind`] + [`dex_core::Instance::merge_value`].
//!
//! # Why semi-naive search is sound for the standard chase
//!
//! The restricted chase fires a trigger only when its (existential) head
//! `∃z̄ ψ` is not yet satisfiable. Satisfied heads *stay* satisfied under
//! both kinds of mutation: inserts only add witnesses, and an egd merge
//! maps the instance along the endomorphism `loser ↦ winner`, carrying
//! any witness atoms along while fixing the values of every surviving
//! (unrewritten) row. A body match that became *newly* unsatisfied must
//! therefore involve at least one row appended since the last
//! examination — and [`Instance::merge_value`] re-appends rewritten rows,
//! so they re-enter the delta window. Seeding each body atom with each
//! delta row thus reaches every genuinely new trigger.
//!
//! # Why a resumed egd scan is complete
//!
//! Each egd fixpoint runs one [`EgdScan`]: a row-log cursor per (egd,
//! body position), starting at the fixpoint's seed. The scan pins each
//! live row at its body position and stops at the first match with
//! `lhs ≠ rhs`; after the merge it resumes from the saved cursors
//! instead of rescanning from the seed. No violation is missed:
//!
//! - A row the scan has already passed keeps its values unless a merge
//!   rewrites it (rows are immutable; a rewrite is a new row).
//! - [`Instance::merge_value`] tombstones every rewritten row and
//!   re-appends it at the end of its log, past every cursor.
//! - So a match made only of passed rows already existed, with the same
//!   values, when the most recently pinned of its rows was pinned, and
//!   was clean then (rows before the seed were clean at the previous
//!   fixpoint). Any new violation contains a row some cursor has not
//!   reached yet.
//!
//! The scan ends when one pass over all cursors finds nothing left, at
//! O(window + rewritten rows) pins instead of the O(merges × window) a
//! restart-per-merge costs. Its first violation is the one a restart
//! would find (same egd, position and row), and the final quotient does
//! not depend on merge order: every merge eliminates one value, and the
//! surviving value of a class is its constant or its smallest null. So
//! `egd_steps` and the post-fixpoint atom set are what a restarting
//! search produces.
//!
//! # Why the α-chase needs a full reset after merges
//!
//! An ᾱ-head is a *specific* set of atoms, not an existential: a merge
//! can rewrite one of them away and re-enable the trigger (the engine of
//! Example 4.4's α₃ loop). Inserts still never disable satisfaction, so
//! the α-run is delta-driven between merges and rewinds its cursor to
//! the origin (and re-examines the s-t matches) after every merge. The
//! α-run also keeps the naive driver's per-step state hashing so
//! provably-infinite runs are still reported as `CycleDetected`.

use crate::alpha::{AlphaOutcome, AlphaSource, AlphaSuccess, ChaseStep, Justification};
use crate::budget::ChaseBudget;
use crate::provenance::Provenance;
use crate::standard::{ChaseError, ChaseSuccess};
use crate::stats::ChaseStats;
use crate::witness::ConflictWitness;
use dex_core::govern::Clock;
use dex_core::{
    merge_policy, Atom, DeltaCursor, Instance, NullGen, SourceDelta, Symbol, Value, ValueUnionFind,
};
use dex_logic::matcher;
use dex_logic::{Assignment, Body, EgdScan, EgdViolation, FAtom, Setting, Term, Tgd};
use dex_obs::{EventKind, Tracer};
use std::collections::{HashMap, HashSet};

/// A reusable chase driver for one setting + budget.
///
/// The engine reads all time — the budget's deadline *and* the
/// [`ChaseStats`] phase timings — from one [`Clock`]
/// ([`ChaseEngine::with_clock`] substitutes a mock), so deadline
/// decisions and reported timings can never disagree. The same clock
/// stamps every trace event, which is what makes two same-seed runs
/// under a mock clock byte-identical.
pub struct ChaseEngine<'a> {
    setting: &'a Setting,
    budget: ChaseBudget,
    clock: Clock,
    tracer: Tracer,
    provenance: bool,
}

/// The full trigger valuation of a body match, as (variable, value)
/// pairs in the assignment's (sorted) order.
fn valuation_of(env: &Assignment) -> Vec<(String, Value)> {
    env.bindings()
        .map(|(v, val)| (v.to_string(), val))
        .collect()
}

fn state_hash(inst: &Instance) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    inst.sorted_atoms().hash(&mut h);
    h.finish()
}

/// Owned copies of the delta rows of the body relations: firing mutates
/// the instance (reallocating row logs), so the round works off a
/// snapshot.
fn snapshot_delta(
    inst: &Instance,
    cursor: &DeltaCursor,
    rels: &HashSet<Symbol>,
) -> HashMap<Symbol, Vec<Box<[Value]>>> {
    let mut out = HashMap::new();
    for &rel in rels {
        let rows: Vec<Box<[Value]>> = inst.delta_rows(rel, cursor).map(Box::from).collect();
        if !rows.is_empty() {
            out.insert(rel, rows);
        }
    }
    out
}

/// Instantiates the ᾱ-head of `tgd` (at index `dep` in `all_tgds`
/// order) for the body match `env`, querying `alpha` per justification.
fn alpha_head(
    tgd: &Tgd,
    dep: usize,
    env: &Assignment,
    alpha: &mut dyn AlphaSource,
    inst: &Instance,
) -> Vec<Atom> {
    let frontier: Vec<Value> = tgd
        .frontier()
        .iter()
        .map(|&v| env.get(v).expect("body match binds frontier"))
        .collect();
    let body_only: Vec<Value> = tgd
        .body_only_vars()
        .iter()
        .map(|&v| env.get(v).expect("body match binds body vars"))
        .collect();
    let mut full = env.clone();
    for (zi, &z) in tgd.exist_vars.iter().enumerate() {
        let j = Justification {
            dep,
            frontier: frontier.clone(),
            body_only: body_only.clone(),
            z_index: zi,
        };
        full.bind(z, alpha.value(&j, inst));
    }
    tgd.instantiate_head(&full)
}

impl<'a> ChaseEngine<'a> {
    pub fn new(setting: &'a Setting, budget: &ChaseBudget) -> ChaseEngine<'a> {
        ChaseEngine {
            setting,
            budget: budget.clone(),
            clock: Clock::real(),
            tracer: Tracer::off(),
            provenance: false,
        }
    }

    /// Substitutes the time source (deadline checks + stats timings).
    pub fn with_clock(mut self, clock: Clock) -> ChaseEngine<'a> {
        self.clock = clock;
        self
    }

    /// Attaches a tracer. The default is off, in which case every
    /// emission site reduces to one branch (no clock read, no payload).
    pub fn with_tracer(mut self, tracer: Tracer) -> ChaseEngine<'a> {
        self.tracer = tracer;
        self
    }

    /// Enables per-atom provenance recording: the run's result carries
    /// a [`Provenance`] supporting `explain()` and the presolution
    /// justification cross-check.
    pub fn with_provenance(mut self, enabled: bool) -> ChaseEngine<'a> {
        self.provenance = enabled;
        self
    }

    /// Emits `kind` stamped with the engine clock (call sites gate on
    /// `self.tracer.enabled()` before building the payload).
    fn emit(&self, kind: EventKind) {
        self.tracer.emit(self.clock.now_ns(), kind);
    }

    fn t_body_rels(&self) -> HashSet<Symbol> {
        self.setting
            .t_tgds
            .iter()
            .flat_map(|t| t.body.relations())
            .collect()
    }

    fn check_steps(&self, steps: usize, inst: &Instance) -> Result<(), ChaseError> {
        if steps >= self.budget.max_steps {
            return Err(ChaseError::BudgetExceeded {
                steps,
                atoms: inst.len(),
            });
        }
        Ok(())
    }

    /// Builds the structured conflict witness for an egd trigger that
    /// equated the distinct constants `c` and `d`, with justification
    /// chains when the run records provenance.
    fn conflict_witness(
        &self,
        v: &EgdViolation,
        c: Value,
        d: Value,
        prov: Option<&Provenance>,
    ) -> Box<ConflictWitness> {
        let egd = &self.setting.egds[v.egd_index];
        let w = ConflictWitness::from_trigger(egd, v.egd_index, &v.env, c, d);
        Box::new(match prov {
            Some(p) => w.with_provenance(p),
            None => w,
        })
    }

    /// The violating trigger's instantiated body atoms — the premises
    /// whose continued support keeps the merge justified under
    /// incremental deletion ([`Provenance::record_merge`]).
    fn egd_premises(egd: &dex_logic::Egd, v: &EgdViolation) -> Vec<Atom> {
        egd.body
            .iter()
            .map(|a| {
                Atom::new(
                    a.rel,
                    a.args
                        .iter()
                        .map(|&t| v.env.term(t).expect("egd trigger env binds its body"))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Fires one restricted-chase trigger: fresh nulls for the
    /// existentials, head atoms inserted with the atom budget enforced
    /// per insertion (one wide head cannot overshoot unboundedly).
    #[allow(clippy::too_many_arguments)]
    fn fire_standard(
        &self,
        tgd: &Tgd,
        dep_index: usize,
        mut env: Assignment,
        inst: &mut Instance,
        nulls: &mut NullGen,
        steps: usize,
        stats: &mut ChaseStats,
        prov: Option<&mut Provenance>,
    ) -> Result<(), ChaseError> {
        // Premises come from the body match alone, so capture them
        // before the existentials are bound (FO bodies decompose into
        // no premise atoms).
        let premises = prov
            .as_ref()
            .map(|_| tgd.body.instantiate(&env).unwrap_or_default());
        for &z in &tgd.exist_vars {
            env.bind(z, nulls.fresh_value());
        }
        let mut atoms_added = 0usize;
        for atom in tgd.instantiate_head(&env) {
            if inst.insert(atom) {
                atoms_added += 1;
                stats.atoms_inserted += 1;
                stats.peak_atoms = stats.peak_atoms.max(inst.len());
                if inst.len() > self.budget.max_atoms {
                    return Err(ChaseError::BudgetExceeded {
                        steps,
                        atoms: inst.len(),
                    });
                }
            }
        }
        if let Some(p) = prov {
            let valuation = valuation_of(&env);
            let premises = premises.unwrap_or_default();
            // Record every head atom: already-present ones keep their
            // earlier derivation (`record_derived` is first-write-wins).
            for atom in tgd.instantiate_head(&env) {
                p.record_derived(atom, &tgd.name, dep_index, &valuation, &premises);
            }
        }
        if self.tracer.enabled() {
            self.emit(EventKind::TgdFired {
                dep: tgd.name.clone(),
                atoms_added,
            });
        }
        Ok(())
    }

    /// The standard restricted chase (same contract as [`crate::chase`]).
    pub fn run(&self, source: &Instance) -> Result<ChaseSuccess, ChaseError> {
        let gov = self
            .budget
            .governor(&self.clock)
            .with_tracer(self.tracer.clone());
        let t_total = self.clock.now_ns();
        let mut stats = ChaseStats::default();
        let sigma_part = source.clone();
        let mut inst = source.clone();
        stats.peak_atoms = inst.len();
        let mut nulls = NullGen::above(source.active_domain().iter());
        let mut uf = ValueUnionFind::new();
        let mut steps = 0usize;
        let mut prov = self.provenance.then(|| Provenance::for_source(source));
        if self.tracer.enabled() {
            self.emit(EventKind::ChaseStarted {
                driver: "delta_standard".to_string(),
                atoms: inst.len(),
            });
        }

        // Phase A: s-t tgds. σ never changes, so each body is matched
        // exactly once (FO bodies compute their quantification domain
        // once inside `matches`); the restricted head check still runs
        // against the evolving instance.
        let t_phase = self.clock.now_ns();
        let sp_st = self.tracer.span("st_tgds", t_phase);
        for (ti, tgd) in self.setting.st_tgds.iter().enumerate() {
            for env in tgd.body.matches(&sigma_part) {
                gov.check()?;
                stats.triggers_examined += 1;
                if self.tracer.enabled() {
                    self.emit(EventKind::TriggerExamined {
                        dep: tgd.name.clone(),
                    });
                }
                if !tgd.head_holds(&inst, &env) {
                    self.check_steps(steps, &inst)?;
                    self.fire_standard(
                        tgd,
                        ti,
                        env,
                        &mut inst,
                        &mut nulls,
                        steps,
                        &mut stats,
                        prov.as_mut(),
                    )?;
                    steps += 1;
                    stats.tgd_steps += 1;
                    stats.triggers_fired += 1;
                }
            }
        }
        sp_st.close(self.clock.now_ns());
        stats.tgd_time_ns += (self.clock.now_ns() - t_phase) as u128;

        // Phase B: semi-naive fixpoint over egds and target tgds.
        self.run_fixpoint(
            &gov,
            &mut inst,
            &mut nulls,
            &mut uf,
            &mut steps,
            &mut stats,
            &mut prov,
            DeltaCursor::origin(),
            None,
        )?;

        stats.total_time_ns = (self.clock.now_ns() - t_total) as u128;
        let target = inst.difference(&sigma_part);
        if self.tracer.enabled() {
            self.emit(EventKind::ChaseCompleted {
                atoms: inst.len(),
                steps,
                egd_seeds_examined: stats.egd_seeds_examined,
            });
        }
        Ok(ChaseSuccess {
            result: inst,
            target,
            steps,
            stats,
            provenance: prov,
        })
    }

    /// The semi-naive egd/target-tgd fixpoint (Phase B of [`run`] and
    /// the continuation phase of [`resume`]): alternate an egd fixpoint
    /// (seeded at `egd_clean`, or the origin when `None`) with one
    /// seeded tgd round over the delta window past `processed`, until a
    /// round adds nothing.
    ///
    /// [`run`]: ChaseEngine::run
    /// [`resume`]: ChaseEngine::resume
    #[allow(clippy::too_many_arguments)]
    fn run_fixpoint(
        &self,
        gov: &dex_core::Governor,
        mut inst: &mut Instance,
        mut nulls: &mut NullGen,
        uf: &mut ValueUnionFind,
        steps_ref: &mut usize,
        mut stats: &mut ChaseStats,
        prov: &mut Option<Provenance>,
        mut processed: DeltaCursor,
        egd_seed: Option<DeltaCursor>,
    ) -> Result<(), ChaseError> {
        let mut steps = *steps_ref;
        let mut egd_clean: Option<DeltaCursor> = egd_seed;
        let out = (|| -> Result<(), ChaseError> {
            let t_rels = self.t_body_rels();
            loop {
                // Per round, consult deadline/cancel unconditionally — the
                // amortized `check()` only reaches them every 1024 ticks,
                // too coarse for small instances.
                gov.force_check()?;
                // Spans leak (stay open) when a governor interrupt or
                // budget error unwinds out of the round; the analyzer
                // treats that like a truncated trace.
                let sp_round = self.tracer.span("round", self.clock.now_ns());
                // Egds first, to a fixpoint. Merges re-append the rows
                // they rewrite past every scan cursor, so the scan resumes
                // where it stopped instead of restarting from the seed.
                let t_phase = self.clock.now_ns();
                let sp_egd = self.tracer.span("egd_fixpoint", t_phase);
                let seed = egd_clean.take().unwrap_or_default();
                let mut scan = EgdScan::new(&self.setting.egds, &seed);
                while let Some(v) = scan.next_violation(inst) {
                    gov.check()?;
                    self.check_steps(steps, &inst).map_err(|e| {
                        stats.egd_time_ns += (self.clock.now_ns() - t_phase) as u128;
                        e
                    })?;
                    match uf.union(v.left, v.right) {
                        Err((c, d)) => {
                            return Err(ChaseError::EgdConflict {
                                witness: self.conflict_witness(
                                    &v,
                                    Value::Const(c),
                                    Value::Const(d),
                                    prov.as_ref(),
                                ),
                            })
                        }
                        Ok(Some(m)) => {
                            let egd = &self.setting.egds[v.egd_index].name;
                            let rewritten = inst.merge_value(m.loser, m.winner);
                            stats.rows_rewritten += rewritten;
                            steps += 1;
                            stats.egd_steps += 1;
                            if let Some(p) = prov.as_mut() {
                                let premises =
                                    Self::egd_premises(&self.setting.egds[v.egd_index], &v);
                                p.record_merge(egd, m.loser, m.winner, &premises);
                            }
                            if self.tracer.enabled() {
                                self.emit(EventKind::EgdMerged {
                                    dep: egd.clone(),
                                    loser: m.loser.to_string(),
                                    winner: m.winner.to_string(),
                                    rows_rewritten: rewritten,
                                });
                            }
                        }
                        // Same class but both still live cannot happen (losers
                        // are rewritten out of every live row); bail defensively.
                        Ok(None) => break,
                    }
                }
                stats.egd_seeds_examined += scan.seeds_examined();
                egd_clean = Some(inst.cursor());
                sp_egd.close(self.clock.now_ns());
                stats.egd_time_ns += (self.clock.now_ns() - t_phase) as u128;

                if !inst.has_delta_since(&processed) {
                    sp_round.close(self.clock.now_ns());
                    break;
                }

                // One semi-naive round: only triggers touching a delta row
                // can be new, so seed the matcher with each delta row at
                // each body position.
                let t_phase = self.clock.now_ns();
                let sp_tgd = self.tracer.span("tgd_round", t_phase);
                stats.rounds += 1;
                let delta = snapshot_delta(&inst, &processed, &t_rels);
                processed = inst.cursor();
                let round_rows: usize = delta.values().map(Vec::len).sum();
                stats.delta_rows_processed += round_rows;
                stats.max_round_delta_rows = stats.max_round_delta_rows.max(round_rows);
                let st_count = self.setting.st_tgds.len();
                for (ti, tgd) in self.setting.t_tgds.iter().enumerate() {
                    let dep_index = st_count + ti;
                    match &tgd.body {
                        Body::Conj(atoms) => {
                            let mut row_envs: Vec<Assignment> = Vec::new();
                            for (i, batom) in atoms.iter().enumerate() {
                                let Some(rows) = delta.get(&batom.rel) else {
                                    continue;
                                };
                                for row in rows {
                                    row_envs.clear();
                                    matcher::for_each_match_seeded(
                                        atoms,
                                        i,
                                        row,
                                        &inst,
                                        &Assignment::new(),
                                        &mut |env| {
                                            row_envs.push(env.clone());
                                            true
                                        },
                                    );
                                    for env in row_envs.drain(..) {
                                        gov.check()?;
                                        stats.triggers_examined += 1;
                                        if self.tracer.enabled() {
                                            self.emit(EventKind::TriggerExamined {
                                                dep: tgd.name.clone(),
                                            });
                                        }
                                        if !tgd.head_holds(&inst, &env) {
                                            self.check_steps(steps, &inst).map_err(|e| {
                                                stats.tgd_time_ns +=
                                                    (self.clock.now_ns() - t_phase) as u128;
                                                e
                                            })?;
                                            self.fire_standard(
                                                tgd,
                                                dep_index,
                                                env,
                                                &mut inst,
                                                &mut nulls,
                                                steps,
                                                &mut stats,
                                                prov.as_mut(),
                                            )?;
                                            steps += 1;
                                            stats.tgd_steps += 1;
                                            stats.triggers_fired += 1;
                                        }
                                    }
                                }
                            }
                        }
                        // Target bodies are conjunctive by construction; if
                        // one ever is not, fall back to a full examination.
                        body => {
                            for env in body.matches(&inst) {
                                gov.check()?;
                                stats.triggers_examined += 1;
                                if self.tracer.enabled() {
                                    self.emit(EventKind::TriggerExamined {
                                        dep: tgd.name.clone(),
                                    });
                                }
                                if !tgd.head_holds(&inst, &env) {
                                    self.check_steps(steps, &inst)?;
                                    self.fire_standard(
                                        tgd,
                                        dep_index,
                                        env,
                                        &mut inst,
                                        &mut nulls,
                                        steps,
                                        &mut stats,
                                        prov.as_mut(),
                                    )?;
                                    steps += 1;
                                    stats.tgd_steps += 1;
                                    stats.triggers_fired += 1;
                                }
                            }
                        }
                    }
                }
                sp_tgd.close(self.clock.now_ns());
                stats.tgd_time_ns += (self.clock.now_ns() - t_phase) as u128;
                if self.tracer.enabled() {
                    self.emit(EventKind::RoundCompleted {
                        round: stats.rounds,
                        delta_rows: round_rows,
                    });
                }
                sp_round.close(self.clock.now_ns());
            }
            Ok(())
        })();
        *steps_ref = steps;
        out
    }

    /// Incremental data exchange: continues a prior chase result under a
    /// source delta instead of re-chasing from scratch.
    ///
    /// **Insertions** are exactly the semi-naive frontier the engine
    /// already works with: the new source rows seed s-t trigger
    /// discovery, and everything they cause lands in the delta window
    /// the target fixpoint consumes. **Deletions** run DRed-style
    /// propagation over the recorded justification graph
    /// ([`Provenance::retract_sources`]): atoms whose every chain is
    /// dead are retracted, then survivors are re-derived by re-firing
    /// triggers whose premises still hold, seeded from the removed
    /// atoms' head positions.
    ///
    /// The egd boundary: union-find merges are not invertible, so a
    /// merge whose trigger lost support is handled by *over-deleting*
    /// its value cone and letting re-derivation (plus the egd fixpoint
    /// over the re-inserted rows) rebuild whatever still holds — the
    /// result matches a full re-chase up to isomorphism, not atom-for-
    /// atom.
    ///
    /// Falls back to a full re-chase of the updated source when
    /// deletions are present but the prior run recorded no provenance,
    /// or when any dependency has an FO body (FO derivations have no
    /// premise decomposition to propagate deletions through).
    ///
    /// On `Err` the prior result is untouched (the engine works on
    /// clones), so a governed/faulted resume leaves a sound state
    /// behind.
    pub fn resume(
        &self,
        prior: &ChaseSuccess,
        delta: &SourceDelta,
    ) -> Result<ChaseSuccess, ChaseError> {
        let gov = self
            .budget
            .governor(&self.clock)
            .with_tracer(self.tracer.clone());
        let t_total = self.clock.now_ns();
        let sp_resume = self.tracer.span("resume", t_total);

        // The σ-part of the prior result. Source instances are ground
        // and source/target schemas are disjoint, so egd merges never
        // rewrote a σ-row: the difference recovers the chased source.
        let sigma_old = prior.result.difference(&prior.target);

        // Net the batch against the current source: deletes apply
        // first, so delete∩insert of a present atom is a no-op, and
        // absent deletes / already-present inserts drop out entirely.
        let mut seen: HashSet<&Atom> = HashSet::new();
        let net_deletes: Vec<Atom> = delta
            .deletes
            .iter()
            .filter(|a| seen.insert(*a) && sigma_old.contains(a) && !delta.inserts.contains(a))
            .cloned()
            .collect();
        seen.clear();
        let net_inserts: Vec<Atom> = delta
            .inserts
            .iter()
            .filter(|a| seen.insert(*a) && !sigma_old.contains(a))
            .cloned()
            .collect();
        drop(seen);

        let has_fo_body = self
            .setting
            .st_tgds
            .iter()
            .chain(&self.setting.t_tgds)
            .any(|t| !matches!(t.body, Body::Conj(_)));
        if !sigma_old.is_ground()
            || (!net_deletes.is_empty() && (prior.provenance.is_none() || has_fo_body))
        {
            // Deletion propagation needs a justification graph with
            // atom-decomposed premises; without one, correctness comes
            // from a plain re-chase of the updated source.
            let updated = delta.applied(&sigma_old);
            sp_resume.close(self.clock.now_ns());
            let fallback = ChaseEngine {
                setting: self.setting,
                budget: self.budget.clone(),
                clock: self.clock.clone(),
                tracer: self.tracer.clone(),
                provenance: prior.provenance.is_some(),
            };
            return fallback.run(&updated);
        }

        let mut inst = prior.result.clone();
        let mut prov = prior.provenance.clone();
        let mut stats = ChaseStats::default();
        stats.peak_atoms = inst.len();
        let mut nulls = NullGen::above(prior.result.active_domain().iter());
        let mut uf = ValueUnionFind::new();
        let mut steps = 0usize;
        if self.tracer.enabled() {
            self.emit(EventKind::ChaseStarted {
                driver: "resume".to_string(),
                atoms: inst.len(),
            });
        }
        // The updated σ-part, for FO s-t re-examination and the final
        // target split.
        let sigma_new = delta.applied(&sigma_old);
        // Cursors taken before any mutation: every row this resume
        // appends (re-derivations, new source rows, their consequences)
        // is inside the windows the fixpoint consumes.
        let processed = inst.cursor();
        let egd_seed = inst.cursor();

        // Deletions: retract everything whose justifications all died,
        // then re-derive survivors head-first — each newly-unsatisfied
        // trigger's prior head witness intersects the removed set, so
        // seeding body matches from removed atoms' head positions
        // reaches every such trigger.
        let removed = if net_deletes.is_empty() {
            Vec::new()
        } else {
            let p = prov
                .as_mut()
                .expect("fallback handled the provenance-free case");
            let removed = p.retract_sources(&net_deletes);
            for a in &removed {
                inst.remove(a);
            }
            stats.atoms_retracted = removed.len();
            removed
        };
        let inserted_before_refire = stats.atoms_inserted;
        let st_count = self.setting.st_tgds.len();
        for r in &removed {
            let all = self.setting.st_tgds.iter().enumerate().chain(
                self.setting
                    .t_tgds
                    .iter()
                    .enumerate()
                    .map(|(ti, t)| (st_count + ti, t)),
            );
            for (dep_index, tgd) in all {
                let Body::Conj(body_atoms) = &tgd.body else {
                    continue; // FO bodies forced the fallback above.
                };
                for h in &tgd.head {
                    let Some(env0) = Self::seed_from_head(tgd, h, r) else {
                        continue;
                    };
                    let mut envs: Vec<Assignment> = Vec::new();
                    matcher::for_each_match(body_atoms, &inst, &env0, &mut |env| {
                        envs.push(env.clone());
                        true
                    });
                    for env in envs {
                        gov.check()?;
                        stats.triggers_examined += 1;
                        if self.tracer.enabled() {
                            self.emit(EventKind::TriggerExamined {
                                dep: tgd.name.clone(),
                            });
                        }
                        if !tgd.head_holds(&inst, &env) {
                            self.check_steps(steps, &inst)?;
                            self.fire_standard(
                                tgd,
                                dep_index,
                                env,
                                &mut inst,
                                &mut nulls,
                                steps,
                                &mut stats,
                                prov.as_mut(),
                            )?;
                            steps += 1;
                            stats.tgd_steps += 1;
                            stats.triggers_fired += 1;
                        }
                    }
                }
            }
        }
        stats.atoms_rederived = stats.atoms_inserted - inserted_before_refire;

        // Insertions: add the new source rows, then seed s-t trigger
        // discovery from exactly those rows (σ never changes otherwise,
        // so no other s-t trigger can be new).
        for a in &net_inserts {
            if inst.insert(a.clone()) {
                stats.peak_atoms = stats.peak_atoms.max(inst.len());
                if let Some(p) = prov.as_mut() {
                    p.record_source(a.clone());
                }
            }
        }
        for (ti, tgd) in self.setting.st_tgds.iter().enumerate() {
            match &tgd.body {
                Body::Conj(body_atoms) => {
                    let mut row_envs: Vec<Assignment> = Vec::new();
                    for (i, batom) in body_atoms.iter().enumerate() {
                        for a in net_inserts.iter().filter(|a| a.rel == batom.rel) {
                            row_envs.clear();
                            matcher::for_each_match_seeded(
                                body_atoms,
                                i,
                                &a.args,
                                &inst,
                                &Assignment::new(),
                                &mut |env| {
                                    row_envs.push(env.clone());
                                    true
                                },
                            );
                            for env in row_envs.drain(..) {
                                gov.check()?;
                                stats.triggers_examined += 1;
                                if self.tracer.enabled() {
                                    self.emit(EventKind::TriggerExamined {
                                        dep: tgd.name.clone(),
                                    });
                                }
                                if !tgd.head_holds(&inst, &env) {
                                    self.check_steps(steps, &inst)?;
                                    self.fire_standard(
                                        tgd,
                                        ti,
                                        env,
                                        &mut inst,
                                        &mut nulls,
                                        steps,
                                        &mut stats,
                                        prov.as_mut(),
                                    )?;
                                    steps += 1;
                                    stats.tgd_steps += 1;
                                    stats.triggers_fired += 1;
                                }
                            }
                        }
                    }
                }
                // FO s-t bodies have no seedable decomposition: new
                // matches can only mention new constants, but finding
                // them takes a full re-examination over the updated
                // σ-part (quantification ranges over σ's domain only).
                body => {
                    if net_inserts.is_empty() {
                        continue;
                    }
                    for env in body.matches(&sigma_new) {
                        gov.check()?;
                        stats.triggers_examined += 1;
                        if self.tracer.enabled() {
                            self.emit(EventKind::TriggerExamined {
                                dep: tgd.name.clone(),
                            });
                        }
                        if !tgd.head_holds(&inst, &env) {
                            self.check_steps(steps, &inst)?;
                            self.fire_standard(
                                tgd,
                                ti,
                                env,
                                &mut inst,
                                &mut nulls,
                                steps,
                                &mut stats,
                                prov.as_mut(),
                            )?;
                            steps += 1;
                            stats.tgd_steps += 1;
                            stats.triggers_fired += 1;
                        }
                    }
                }
            }
        }

        // Continue the target fixpoint over everything this resume
        // appended — the same loop a from-scratch run uses, so governed
        // interruption and budget behavior are identical.
        self.run_fixpoint(
            &gov,
            &mut inst,
            &mut nulls,
            &mut uf,
            &mut steps,
            &mut stats,
            &mut prov,
            processed,
            Some(egd_seed),
        )?;

        stats.total_time_ns = (self.clock.now_ns() - t_total) as u128;
        let target = inst.difference(&sigma_new);
        if self.tracer.enabled() {
            self.emit(EventKind::ResumeApplied {
                inserts: net_inserts.len(),
                deletes: net_deletes.len(),
                atoms_retracted: stats.atoms_retracted,
                atoms_rederived: stats.atoms_rederived,
            });
            self.emit(EventKind::ChaseCompleted {
                atoms: inst.len(),
                steps,
                egd_seeds_examined: stats.egd_seeds_examined,
            });
        }
        sp_resume.close(self.clock.now_ns());
        Ok(ChaseSuccess {
            result: inst,
            target,
            steps,
            stats,
            provenance: prov,
        })
    }

    /// Unifies the head atom `h` against the retracted ground atom `r`:
    /// constants must agree, universal head variables bind into the
    /// returned partial body match, and existential variables only need
    /// internal consistency (a re-fired trigger re-witnesses them with
    /// fresh nulls).
    fn seed_from_head(tgd: &Tgd, h: &FAtom, r: &Atom) -> Option<Assignment> {
        if h.rel != r.rel || h.args.len() != r.args.len() {
            return None;
        }
        let mut env = Assignment::new();
        let mut exist: HashMap<dex_logic::Var, Value> = HashMap::new();
        for (&t, &v) in h.args.iter().zip(r.args.iter()) {
            match t {
                Term::Const(c) => {
                    if Value::Const(c) != v {
                        return None;
                    }
                }
                Term::Var(x) if tgd.exist_vars.contains(&x) => match exist.get(&x) {
                    Some(&old) if old != v => return None,
                    _ => {
                        exist.insert(x, v);
                    }
                },
                Term::Var(x) => match env.get(x) {
                    Some(old) if old != v => return None,
                    Some(_) => {}
                    None => env.bind(x, v),
                },
            }
        }
        Some(env)
    }

    /// Fires one ᾱ-trigger. `Err` carries the terminal outcome.
    #[allow(clippy::too_many_arguments)]
    fn alpha_fire(
        &self,
        tgd: &Tgd,
        dep_index: usize,
        env: &Assignment,
        head: Vec<Atom>,
        inst: &mut Instance,
        steps: &mut usize,
        trace: &mut Vec<ChaseStep>,
        seen: &mut HashSet<u64>,
        stats: &mut ChaseStats,
        prov: Option<&mut Provenance>,
    ) -> Result<(), AlphaOutcome> {
        if *steps >= self.budget.max_steps {
            return Err(AlphaOutcome::BudgetExceeded {
                steps: *steps,
                atoms: inst.len(),
            });
        }
        if let Some(p) = prov {
            // The α-justification is (d, ū, v̄): the body match alone —
            // the z̄ witnesses come from the α-source, not the trigger.
            let valuation = valuation_of(env);
            let premises = tgd.body.instantiate(env).unwrap_or_default();
            for a in &head {
                p.record_derived(a.clone(), &tgd.name, dep_index, &valuation, &premises);
            }
        }
        let mut added = Vec::new();
        for a in head {
            if inst.insert(a.clone()) {
                stats.atoms_inserted += 1;
                stats.peak_atoms = stats.peak_atoms.max(inst.len());
                added.push(a);
                if inst.len() > self.budget.max_atoms {
                    return Err(AlphaOutcome::BudgetExceeded {
                        steps: *steps,
                        atoms: inst.len(),
                    });
                }
            }
        }
        *steps += 1;
        stats.tgd_steps += 1;
        stats.triggers_fired += 1;
        if self.tracer.enabled() {
            self.emit(EventKind::TgdFired {
                dep: tgd.name.clone(),
                atoms_added: added.len(),
            });
        }
        trace.push(ChaseStep::TgdApplied {
            dep: tgd.name.clone(),
            added,
        });
        if !seen.insert(state_hash(inst)) {
            return Err(AlphaOutcome::CycleDetected { steps: *steps });
        }
        Ok(())
    }

    /// The α-chase (same contract as [`crate::alpha_chase`]).
    pub fn run_alpha(&self, source: &Instance, alpha: &mut dyn AlphaSource) -> AlphaOutcome {
        debug_assert!(source.is_ground(), "α-chase starts from ground instances");
        let gov = self
            .budget
            .governor(&self.clock)
            .with_tracer(self.tracer.clone());
        let t_total = self.clock.now_ns();
        let mut stats = ChaseStats::default();
        let sigma_part = source.clone();
        let mut inst = source.clone();
        stats.peak_atoms = inst.len();
        let st_count = self.setting.st_tgds.len();
        let mut steps = 0usize;
        let mut trace: Vec<ChaseStep> = Vec::new();
        let mut seen_states: HashSet<u64> = HashSet::new();
        seen_states.insert(state_hash(&inst));
        let mut prov = self.provenance.then(|| Provenance::for_source(source));
        if self.tracer.enabled() {
            self.emit(EventKind::ChaseStarted {
                driver: "delta_alpha".to_string(),
                atoms: inst.len(),
            });
        }

        // σ is ground and merges only ever rewrite nulls, so the s-t
        // body matches are computed exactly once for the whole run.
        let st_matches: Vec<Vec<Assignment>> = self
            .setting
            .st_tgds
            .iter()
            .map(|t| t.body.matches(&sigma_part))
            .collect();
        let t_rels = self.t_body_rels();

        let mut processed = DeltaCursor::origin();
        let mut egd_clean: Option<DeltaCursor> = None;
        let mut st_dirty = true;
        loop {
            // Per round, consult deadline/cancel unconditionally (the
            // amortized `check()` is too coarse for small instances).
            if let Err(i) = gov.force_check() {
                return AlphaOutcome::Interrupted(i);
            }
            // Spans leak on terminal outcomes mid-round (interrupt,
            // budget, conflict, cycle) — the analyzer treats the trace
            // like a truncated one.
            let sp_round = self.tracer.span("round", self.clock.now_ns());
            // Egd applications, eagerly to a fixpoint. Any merge can
            // remove a fixed ᾱ-head, so it rewinds both the target
            // cursor and the s-t examination.
            let t_phase = self.clock.now_ns();
            let sp_egd = self.tracer.span("egd_fixpoint", t_phase);
            let seed = egd_clean.take().unwrap_or_default();
            let mut scan = EgdScan::new(&self.setting.egds, &seed);
            while let Some(v) = scan.next_violation(&inst) {
                if let Err(i) = gov.check() {
                    return AlphaOutcome::Interrupted(i);
                }
                if steps >= self.budget.max_steps {
                    return AlphaOutcome::BudgetExceeded {
                        steps,
                        atoms: inst.len(),
                    };
                }
                // Merge policy applied to the raw pair, NOT a persistent
                // union-find: a fixed α can re-introduce a merged-away
                // null (Example 4.4's α₃), which a union-find would treat
                // as "already merged" and silently drop.
                match merge_policy(v.left, v.right) {
                    Err((c, d)) => {
                        return AlphaOutcome::Failing {
                            witness: self.conflict_witness(
                                &v,
                                Value::Const(c),
                                Value::Const(d),
                                prov.as_ref(),
                            ),
                            steps,
                        }
                    }
                    Ok(Some(m)) => {
                        let egd = self.setting.egds[v.egd_index].name.clone();
                        let rewritten = inst.merge_value(m.loser, m.winner);
                        stats.rows_rewritten += rewritten;
                        steps += 1;
                        stats.egd_steps += 1;
                        if let Some(p) = prov.as_mut() {
                            let premises = Self::egd_premises(&self.setting.egds[v.egd_index], &v);
                            p.record_merge(&egd, m.loser, m.winner, &premises);
                        }
                        if self.tracer.enabled() {
                            self.emit(EventKind::EgdMerged {
                                dep: egd.clone(),
                                loser: m.loser.to_string(),
                                winner: m.winner.to_string(),
                                rows_rewritten: rewritten,
                            });
                        }
                        trace.push(ChaseStep::EgdApplied {
                            dep: egd,
                            from: m.loser,
                            to: m.winner,
                        });
                        st_dirty = true;
                        processed = DeltaCursor::origin();
                        if !seen_states.insert(state_hash(&inst)) {
                            return AlphaOutcome::CycleDetected { steps };
                        }
                    }
                    Ok(None) => break,
                }
            }
            stats.egd_seeds_examined += scan.seeds_examined();
            egd_clean = Some(inst.cursor());
            sp_egd.close(self.clock.now_ns());
            stats.egd_time_ns += (self.clock.now_ns() - t_phase) as u128;

            if !st_dirty && !inst.has_delta_since(&processed) {
                // Fixpoint: egds hold and every examined trigger's
                // ᾱ-head is (still) present.
                sp_round.close(self.clock.now_ns());
                stats.total_time_ns = (self.clock.now_ns() - t_total) as u128;
                let target = inst.difference(&sigma_part);
                if self.tracer.enabled() {
                    self.emit(EventKind::ChaseCompleted {
                        atoms: inst.len(),
                        steps,
                        egd_seeds_examined: stats.egd_seeds_examined,
                    });
                }
                return AlphaOutcome::Success(AlphaSuccess {
                    result: inst,
                    target,
                    steps,
                    trace,
                    stats,
                    provenance: prov,
                });
            }

            let t_phase = self.clock.now_ns();
            let sp_tgd = self.tracer.span("tgd_round", t_phase);
            if st_dirty {
                st_dirty = false;
                for (ti, tgd) in self.setting.st_tgds.iter().enumerate() {
                    for env in &st_matches[ti] {
                        if let Err(i) = gov.check() {
                            return AlphaOutcome::Interrupted(i);
                        }
                        stats.triggers_examined += 1;
                        if self.tracer.enabled() {
                            self.emit(EventKind::TriggerExamined {
                                dep: tgd.name.clone(),
                            });
                        }
                        let head = alpha_head(tgd, ti, env, alpha, &inst);
                        if head.iter().any(|a| !inst.contains(a)) {
                            if let Err(out) = self.alpha_fire(
                                tgd,
                                ti,
                                env,
                                head,
                                &mut inst,
                                &mut steps,
                                &mut trace,
                                &mut seen_states,
                                &mut stats,
                                prov.as_mut(),
                            ) {
                                return out;
                            }
                        }
                    }
                }
            }
            if inst.has_delta_since(&processed) {
                stats.rounds += 1;
                let delta = snapshot_delta(&inst, &processed, &t_rels);
                processed = inst.cursor();
                let round_rows: usize = delta.values().map(Vec::len).sum();
                stats.delta_rows_processed += round_rows;
                stats.max_round_delta_rows = stats.max_round_delta_rows.max(round_rows);
                for (ti, tgd) in self.setting.t_tgds.iter().enumerate() {
                    let dep = st_count + ti;
                    let envs: Vec<Assignment> = match &tgd.body {
                        Body::Conj(atoms) => {
                            let mut envs = Vec::new();
                            for (i, batom) in atoms.iter().enumerate() {
                                let Some(rows) = delta.get(&batom.rel) else {
                                    continue;
                                };
                                for row in rows {
                                    matcher::for_each_match_seeded(
                                        atoms,
                                        i,
                                        row,
                                        &inst,
                                        &Assignment::new(),
                                        &mut |env| {
                                            envs.push(env.clone());
                                            true
                                        },
                                    );
                                }
                            }
                            envs
                        }
                        body => body.matches(&inst),
                    };
                    for env in envs {
                        if let Err(i) = gov.check() {
                            return AlphaOutcome::Interrupted(i);
                        }
                        stats.triggers_examined += 1;
                        if self.tracer.enabled() {
                            self.emit(EventKind::TriggerExamined {
                                dep: tgd.name.clone(),
                            });
                        }
                        let head = alpha_head(tgd, dep, &env, alpha, &inst);
                        if head.iter().any(|a| !inst.contains(a)) {
                            if let Err(out) = self.alpha_fire(
                                tgd,
                                dep,
                                &env,
                                head,
                                &mut inst,
                                &mut steps,
                                &mut trace,
                                &mut seen_states,
                                &mut stats,
                                prov.as_mut(),
                            ) {
                                return out;
                            }
                        }
                    }
                }
                if self.tracer.enabled() {
                    self.emit(EventKind::RoundCompleted {
                        round: stats.rounds,
                        delta_rows: round_rows,
                    });
                }
            }
            sp_tgd.close(self.clock.now_ns());
            stats.tgd_time_ns += (self.clock.now_ns() - t_phase) as u128;
            sp_round.close(self.clock.now_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::chase_naive;
    use dex_core::hom_equivalent;
    use dex_logic::{parse_instance, parse_setting};

    #[test]
    fn engine_matches_naive_on_transitive_closure() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d). E(d,e).").unwrap();
        let budget = ChaseBudget::default();
        let fast = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        let slow = chase_naive(&d, &s, &budget).unwrap();
        assert_eq!(fast.target.len(), 10); // all pairs (i<j) on a 5-path
        assert_eq!(fast.target, slow.target);
        assert!(fast.stats.validate().is_ok());
        assert!(fast.stats.rounds >= 2);
        assert!(fast.stats.triggers_fired <= fast.stats.triggers_examined);
    }

    /// n surrogate-key groups of two rows each, merged one after the
    /// other: a search restarted from the seed after every merge walks
    /// past all the groups already clean, Θ(n²) pins in total. The
    /// resumed scan pins each Lookup row once per body position, plus
    /// one re-pin per merge.
    #[test]
    fn egd_seed_work_is_linear_on_a_surrogate_key_chain() {
        let d = parse_setting(
            "source { Flat/2 }
             target { Lookup/2, Rest/2 }
             st { Flat(x,y) -> exists k . Lookup(k,x) & Rest(k,y); }
             t { key: Lookup(k1,x) & Lookup(k2,x) -> k1 = k2; }",
        )
        .unwrap();
        let n = 64;
        let atoms: String = (0..n)
            .map(|i| format!("Flat(a{i},b{i}). Flat(a{i},c{i}). "))
            .collect();
        let s = parse_instance(&atoms).unwrap();
        let out = ChaseEngine::new(&d, &ChaseBudget::default())
            .run(&s)
            .unwrap();
        let st = &out.stats;
        assert_eq!(st.egd_steps, n);
        assert!(st.validate().is_ok());
        let lookup_rows = 2 * n;
        let body_positions = 2;
        let bound = body_positions * (lookup_rows + st.rows_rewritten) + st.egd_steps;
        assert!(
            st.egd_seeds_examined <= bound,
            "{} seeds examined, linear bound {bound}",
            st.egd_seeds_examined
        );
        assert!(st.egd_seeds_examined < n * n / 2);
    }

    #[test]
    fn engine_runs_egds_through_the_union_find() {
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               P(x) -> exists z . F(x,z);
               Q(x,y) -> F(x,y);
             }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,b).").unwrap();
        let budget = ChaseBudget::default();
        let out = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        assert_eq!(out.target.len(), 1);
        assert!(out
            .target
            .contains(&Atom::of("F", vec![Value::konst("a"), Value::konst("b")])));
        assert!(out.stats.egd_steps >= 1);
        assert!(out.stats.rows_rewritten >= 1);
        assert!(out.stats.validate().is_ok());
    }

    #[test]
    fn engine_merge_then_refire_reaches_the_naive_fixpoint() {
        // The merge rewrites F-rows, which must re-enter the delta so
        // the target tgd sees the merged row.
        let d = parse_setting(
            "source { P/2 }
             target { F/2, G/1 }
             st { P(x,y) -> exists z . F(x,z); }
             t {
               F(x,y) & F(x,z) -> y = z;
               F(x,y) -> G(y);
             }",
        )
        .unwrap();
        let s = parse_instance("P(a,b). P(a,c).").unwrap();
        let budget = ChaseBudget::default();
        let fast = ChaseEngine::new(&d, &budget).run(&s).unwrap();
        let slow = chase_naive(&d, &s, &budget).unwrap();
        assert!(hom_equivalent(&fast.target, &slow.target));
        assert_eq!(fast.target.rows_of_len("F".into()), 1);
        assert_eq!(fast.target.rows_of_len("G".into()), 1);
    }

    fn ground(rel: &str, args: &[&str]) -> Atom {
        Atom::of(
            rel,
            args.iter().map(|a| Value::konst(a)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn resume_insert_only_matches_rechase() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let mut delta = SourceDelta::new();
        delta.insert(ground("E", &["d", "e"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        assert!(resumed.stats.validate().is_ok());
        assert_eq!(resumed.stats.atoms_retracted, 0);
        // The new edge extends every closed path ending at d.
        assert!(resumed.stats.atoms_inserted >= 4);
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_delete_spares_atoms_with_a_second_chain() {
        let d = parse_setting(
            "source { P/1, Q/1 }
             target { T/1, U/1 }
             st {
               P(x) -> T(x);
               Q(x) -> T(x);
             }
             t { T(x) -> U(x); }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a). P(b).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let mut delta = SourceDelta::new();
        delta.delete(ground("P", &["a"]));
        delta.delete(ground("P", &["b"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        // T(a)/U(a) survive through the Q-chain; T(b)/U(b) die.
        assert!(resumed.target.contains(&ground("T", &["a"])));
        assert!(resumed.target.contains(&ground("U", &["a"])));
        assert!(!resumed.target.contains(&ground("T", &["b"])));
        assert!(!resumed.target.contains(&ground("U", &["b"])));
        assert!(resumed.stats.atoms_retracted >= 2);
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_over_deletes_across_dead_egd_merges() {
        // The documented egd boundary: the prior run merged ⊥1 ↦ c, so
        // F(a,c) carries both the Q-chain and the rekeyed P-chain.
        // Deleting Q(a,c) kills the merge; the P-derived atom must come
        // back as F(a,⊥fresh), not survive as F(a,c).
        let d = parse_setting(
            "source { P/1, Q/2 }
             target { F/2 }
             st {
               P(x) -> exists z . F(x,z);
               Q(x,y) -> F(x,y);
             }
             t { F(x,y) & F(x,z) -> y = z; }",
        )
        .unwrap();
        let s = parse_instance("P(a). Q(a,c).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        assert!(prior.target.contains(&ground("F", &["a", "c"])));
        let mut delta = SourceDelta::new();
        delta.delete(ground("Q", &["a", "c"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        assert!(!resumed.target.contains(&ground("F", &["a", "c"])));
        assert_eq!(resumed.target.len(), 1);
        assert!(resumed.stats.atoms_rederived >= 1);
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        // The dead merge left no record behind.
        assert!(resumed.provenance.as_ref().unwrap().merges().is_empty());
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_mixed_batch_matches_rechase() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d). E(d,e).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let mut delta = SourceDelta::new();
        delta.delete(ground("E", &["b", "c"]));
        delta.insert(ground("E", &["b", "d"]));
        // Delete + re-insert nets to a no-op; absent delete is dropped.
        delta.delete(ground("E", &["a", "b"]));
        delta.insert(ground("E", &["a", "b"]));
        delta.delete(ground("E", &["z", "z"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        assert!(resumed.stats.validate().is_ok());
        resumed
            .provenance
            .as_ref()
            .unwrap()
            .verify_justified(&resumed.result)
            .unwrap();
    }

    #[test]
    fn resume_without_provenance_falls_back_on_deletions() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget);
        let prior = eng.run(&s).unwrap();
        assert!(prior.provenance.is_none());
        let mut delta = SourceDelta::new();
        delta.delete(ground("E", &["b", "c"]));
        let resumed = eng.resume(&prior, &delta).unwrap();
        let rechased = eng.run(&delta.applied(&s)).unwrap();
        assert!(dex_core::isomorphic(&resumed.target, &rechased.target));
        // The fallback preserves the prior's provenance-lessness.
        assert!(resumed.provenance.is_none());
    }

    #[test]
    fn resume_honors_the_budget_and_leaves_prior_intact() {
        let d = parse_setting(
            "source { E/2 }
             target { T/2 }
             st { E(x,y) -> T(x,y); }
             t { T(x,y) & T(y,z) -> T(x,z); }",
        )
        .unwrap();
        let s = parse_instance("E(a,b). E(b,c). E(c,d). E(d,e).").unwrap();
        let budget = ChaseBudget::default();
        let eng = ChaseEngine::new(&d, &budget).with_provenance(true);
        let prior = eng.run(&s).unwrap();
        let before = prior.result.clone();
        let mut delta = SourceDelta::new();
        delta.insert(ground("E", &["e", "f"]));
        let tight = ChaseBudget::new(1, 8000);
        let starved = ChaseEngine::new(&d, &tight).with_provenance(true);
        let err = starved.resume(&prior, &delta).unwrap_err();
        assert!(matches!(err, ChaseError::BudgetExceeded { .. }));
        // The engine worked on clones; the prior result is untouched.
        assert_eq!(prior.result, before);
    }
}
