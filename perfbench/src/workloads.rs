//! The four workloads. Each runs the public API the way one `dex`
//! subcommand does: `exchange_*` like `dex core` (parse, chase, core),
//! `answer` like `dex answer`, `update` like `dex update` followed by a
//! query over the resumed target. All inputs derive from the workload
//! seed, except `update`'s prior, which is fixed like the settings; see
//! `perfbench/README.md` for why each is sized as it is.

use crate::measure::{mix, Spans};
use dex_chase::{ChaseBudget, ChaseEngine, ChaseSuccess};
use dex_core::{
    core_parallel_governed, has_homomorphism, par_jobs_dispatched, par_jobs_inline, Atom,
    GovernedCore, Governor, Instance, Pool, Schema, SourceDelta, Value,
};
use dex_datagen::{
    layered_setting, mapping_scenario, random_source, LayeredConfig, ScenarioConfig, SourceConfig,
};
use dex_logic::{instance_to_dsl, parse_instance, parse_query, parse_setting, setting_to_dsl};
use dex_logic::{Query, Setting};
use dex_query::{ucq_certain_answers, AnswerConfig, AnswerEngine, Answers, EvalEngine, Semantics};
use std::time::Instant;

/// Per-layer readings of one traced op: `(metric name, value)`.
pub type Layers = Vec<(&'static str, f64)>;

/// One closed-loop workload. The runner calls `prepare`, times `run`,
/// then reads `universal_ns`, `layers` and (on sampled ops) `check`
/// outside the timed region.
pub trait Workload {
    /// Name of the op span in the trace.
    fn op_name(&self) -> &'static str;
    /// Builds op `i`'s input (untimed).
    fn prepare(&mut self, i: u64);
    /// The op itself (timed). `Err` is a failed op.
    fn run(&mut self, spans: &mut Spans) -> Result<(), String>;
    /// Time until the op's canonical universal solution existed.
    fn universal_ns(&self) -> Option<u64>;
    /// Per-layer times and work counters of the last traced op.
    fn layers(&mut self, out: &mut Layers);
    /// Checks the last op's output against an independent computation.
    fn check(&self) -> Result<(), String>;
    /// Checks what setup built; runs once, after setup is timed.
    fn check_setup(&mut self) -> Result<(), String> {
        self.check()
    }
    /// Every `check_every`-th op (on average, seeded) is checked.
    fn check_every(&self) -> u64;
    /// Ops cycle through the inputs in blocks of this many; a run ends
    /// only at the end of a block.
    fn cycle_len(&self) -> u64 {
        1
    }
    /// One universal-solution time (ms) taken beside the op, for
    /// workloads whose ops never build one; `None` for the others.
    fn sample_universal_ms(&self) -> Result<Option<f64>, String> {
        Ok(None)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Renders `setting` to DSL and parses it back, as `dex` reads it.
fn reparse_setting(setting: &Setting) -> Result<Setting, String> {
    parse_setting(&setting_to_dsl(setting)).map_err(|e| format!("setting: {e}"))
}

/// The chase-engine counters every chasing op reports.
fn chase_layers(out: &mut Layers, success: &ChaseSuccess) {
    let s = &success.stats;
    out.push(("chase.tgd_ms", s.tgd_time_ns as f64 / 1e6));
    out.push(("chase.egd_ms", s.egd_time_ns as f64 / 1e6));
    out.push(("chase.egd_steps", s.egd_steps as f64));
    out.push((
        "chase.ns_per_trigger",
        s.tgd_time_ns as f64 / s.triggers_examined.max(1) as f64,
    ));
    out.push(("chase.triggers_examined", s.triggers_examined as f64));
    out.push(("chase.triggers_fired", s.triggers_fired as f64));
    out.push((
        "chase.fire_ratio",
        ratio(s.triggers_fired, s.triggers_examined),
    ));
    out.push(("chase.rounds", s.rounds as f64));
    out.push(("chase.atoms_out", success.target.len() as f64));
    out.push(("chase.nulls_out", success.target.nulls().len() as f64));
}

// ---------------------------------------------------------------- exchange

/// Source → universal solution → core, on a fresh seeded source per op,
/// pre-rendered to DSL text. The core step runs on a 2-wide pool.
pub struct Exchange {
    name: &'static str,
    setting: Setting,
    budget: ChaseBudget,
    pool: Pool,
    source_cfg: SourceConfig,
    seed: u64,
    text: String,
    out: Option<ExchangeOut>,
}

struct ExchangeOut {
    source: Instance,
    chased: ChaseSuccess,
    core: GovernedCore,
    universal_ns: u64,
    parse_ns: u64,
    chase_ns: u64,
    core_ns: u64,
    par_dispatched: u64,
    par_inline: u64,
}

impl Exchange {
    /// Copy, partition and surrogate-key mapping primitives: the egd
    /// fixpoint dominates.
    pub fn keyed(seed: u64) -> Result<Exchange, String> {
        let setting = mapping_scenario(&ScenarioConfig {
            copies: 2,
            partitions: 2,
            surrogates: 3,
            seed: 5,
        });
        Exchange::new("exchange_keyed", &setting, 256, 256, seed)
    }

    /// Layered join tgds without egds: target-tgd rounds and a core
    /// search that folds most of the target away.
    pub fn layered(seed: u64) -> Result<Exchange, String> {
        let setting = layered_setting(&LayeredConfig {
            with_egds: false,
            layers: 5,
            rels_per_layer: 1,
            up_tgds_per_layer: 1,
            join_tgds_per_layer: 2,
            seed: 5,
            ..LayeredConfig::default()
        });
        Exchange::new("exchange_layered", &setting, 3, 16, seed)
    }

    fn new(
        name: &'static str,
        generated: &Setting,
        num_constants: usize,
        tuples_per_relation: usize,
        seed: u64,
    ) -> Result<Exchange, String> {
        let mut w = Exchange {
            name,
            setting: reparse_setting(generated)?,
            budget: ChaseBudget::default(),
            pool: Pool::new(2),
            source_cfg: SourceConfig {
                num_constants,
                tuples_per_relation,
                seed: 0,
            },
            seed,
            text: String::new(),
            out: None,
        };
        // The initial exchange, on an input no timed op sees.
        w.prepare(u64::MAX);
        w.run(&mut Spans::new(Instant::now()))?;
        Ok(w)
    }
}

impl Workload for Exchange {
    fn op_name(&self) -> &'static str {
        self.name
    }

    fn prepare(&mut self, i: u64) {
        self.out = None;
        self.source_cfg.seed = mix(self.seed, i);
        self.text = instance_to_dsl(&random_source(&self.setting.source, &self.source_cfg));
    }

    fn run(&mut self, spans: &mut Spans) -> Result<(), String> {
        let t0 = Instant::now();
        let (source, parse_ns) = spans.time("parser.parse_instance", || parse_instance(&self.text));
        let source = source.map_err(|e| format!("source: {e}"))?;
        let (chased, chase_ns) = spans.time("chase.run", || {
            ChaseEngine::new(&self.setting, &self.budget).run(&source)
        });
        let chased = chased.map_err(|e| format!("chase: {e}"))?;
        let universal_ns = t0.elapsed().as_nanos() as u64;
        let par = if spans.enabled() {
            (par_jobs_dispatched(), par_jobs_inline())
        } else {
            (0, 0)
        };
        let (core, core_ns) = spans.time("core.core_parallel_governed", || {
            core_parallel_governed(&chased.target, &Governor::unlimited(), &self.pool)
        });
        let (par_dispatched, par_inline) = if spans.enabled() {
            (par_jobs_dispatched() - par.0, par_jobs_inline() - par.1)
        } else {
            (0, 0)
        };
        self.out = Some(ExchangeOut {
            source,
            chased,
            core,
            universal_ns,
            parse_ns,
            chase_ns,
            core_ns,
            par_dispatched,
            par_inline,
        });
        Ok(())
    }

    fn universal_ns(&self) -> Option<u64> {
        self.out.as_ref().map(|o| o.universal_ns)
    }

    fn layers(&mut self, out: &mut Layers) {
        let Some(o) = &self.out else { return };
        out.push(("parser.parse_ms", ms(o.parse_ns)));
        out.push(("parser.bytes", self.text.len() as f64));
        out.push(("chase.run_ms", ms(o.chase_ns)));
        chase_layers(out, &o.chased);
        let (atoms_in, atoms_out) = (o.chased.target.len(), o.core.instance.len());
        out.push(("core.ms", ms(o.core_ns)));
        out.push(("core.atoms_in", atoms_in as f64));
        out.push(("core.atoms_out", atoms_out as f64));
        out.push(("core.kept_ratio", ratio(atoms_out, atoms_in)));
        out.push(("par.jobs_dispatched", o.par_dispatched as f64));
        out.push(("par.jobs_inline", o.par_inline as f64));
    }

    fn check(&self) -> Result<(), String> {
        let o = self.out.as_ref().ok_or("no output to check")?;
        let target = &o.chased.target;
        if !self.setting.is_solution(&o.source, target) {
            return Err(format!(
                "{}: universal solution is not a solution",
                self.name
            ));
        }
        // The core is a subinstance, so it maps into the target by
        // inclusion; hom-equivalence needs the target to map into it.
        let core = &o.core.instance;
        if !o.core.is_minimal() || !core.is_subinstance_of(target) {
            return Err(format!("{}: core is not a minimal subinstance", self.name));
        }
        if core.len() < target.len() && !has_homomorphism(target, core) {
            return Err(format!(
                "{}: core is not hom-equivalent to the universal solution",
                self.name
            ));
        }
        Ok(())
    }

    fn check_every(&self) -> u64 {
        4
    }
}

// ------------------------------------------------------------------ answer

/// The query rotation: four ◇ CQs (whose answers hinge on the core's one
/// null) and one FO query with negation, asked alternately under
/// `Certain` and `PotentialCertain`.
const CQS: [(&str, Semantics); 4] = [
    (
        "Q(x,z) :- Lookup0(k,x), PartA0(k,z)",
        Semantics::PersistentMaybe,
    ),
    ("Q(y,z) :- Rest0(k,y), PartB1(k,z)", Semantics::Maybe),
    (
        "Q(x,y) :- Lookup0(k,x), Rest0(k,y), PartA1(k,w)",
        Semantics::PersistentMaybe,
    ),
    (
        "Q(x,z) :- Rest0(k,x), PartB0(k,z), PartA0(k,w)",
        Semantics::Maybe,
    ),
];
const FO: &str = "Q(x) := exists y . (PartA0(x,y) & !PartB0(x,y))";

/// One prepared query of the rotation with its oracle answers.
struct Asked {
    query: Query,
    semantics: Semantics,
    is_fo: bool,
    expected: Option<Answers>,
}

/// One default `AnswerEngine` built in setup; each op answers the next
/// query of the rotation.
pub struct Answer {
    setting: &'static Setting,
    source: &'static Instance,
    engine: AnswerEngine<'static>,
    rotation: Vec<Asked>,
    current: usize,
    answers: Option<Answers>,
    answer_ns: u64,
}

impl Answer {
    pub fn new(seed: u64) -> Result<Answer, String> {
        let (setting, source) = answer_input(seed)?;
        // The engine borrows its setting and source for the rest of the
        // process.
        let setting: &'static Setting = Box::leak(Box::new(setting));
        let source: &'static Instance = Box::leak(Box::new(source));
        let engine = AnswerEngine::new(setting, source, AnswerConfig::default())
            .map_err(|e| format!("answer engine: {e}"))?;
        let mut asked: Vec<(&str, Semantics, bool)> =
            CQS.iter().map(|&(q, s)| (q, s, false)).collect();
        asked.push((FO, Semantics::Certain, true));
        asked.extend(CQS.iter().map(|&(q, s)| (q, s, false)));
        asked.push((FO, Semantics::PotentialCertain, true));
        let mut rotation = Vec::new();
        for (text, semantics, is_fo) in asked {
            let query = parse_query(text).map_err(|e| format!("query: {e}"))?;
            rotation.push(Asked {
                query,
                semantics,
                is_fo,
                expected: None,
            });
        }
        Ok(Answer {
            setting,
            source,
            engine,
            rotation,
            current: 0,
            answers: None,
            answer_ns: 0,
        })
    }
}

/// The keyed mapping over ≈64 constants with a single surrogate-key row,
/// so the core carries exactly one null.
fn answer_input(seed: u64) -> Result<(Setting, Instance), String> {
    let setting = reparse_setting(&mapping_scenario(&ScenarioConfig {
        copies: 2,
        partitions: 2,
        surrogates: 3,
        seed: 5,
    }))?;
    let mut plain = Schema::new();
    for (rel, arity) in setting.source.relations() {
        if !rel.as_str().starts_with("Flat") {
            plain.add(rel, arity);
        }
    }
    let mut source = random_source(
        &plain,
        &SourceConfig {
            num_constants: 64,
            tuples_per_relation: 64,
            seed: mix(seed, 0),
        },
    );
    let pick = mix(seed, 1);
    source.insert(Atom::of(
        "Flat0",
        vec![
            Value::konst(&format!("c{}", pick % 64)),
            Value::konst(&format!("c{}", (pick >> 32) % 64)),
        ],
    ));
    let text = instance_to_dsl(&source);
    let source = parse_instance(&text).map_err(|e| format!("source: {e}"))?;
    Ok((setting, source))
}

impl Workload for Answer {
    fn op_name(&self) -> &'static str {
        "answer"
    }

    fn prepare(&mut self, i: u64) {
        self.answers = None;
        self.current = (i % self.rotation.len() as u64) as usize;
    }

    fn run(&mut self, spans: &mut Spans) -> Result<(), String> {
        let asked = &self.rotation[self.current];
        let engine = &self.engine;
        let (answers, ns) = spans.time("query.answers", || {
            engine.answers(&asked.query, asked.semantics)
        });
        self.answers = Some(answers.map_err(|e| format!("answer: {e}"))?);
        self.answer_ns = ns;
        Ok(())
    }

    fn universal_ns(&self) -> Option<u64> {
        None
    }

    fn layers(&mut self, out: &mut Layers) {
        let asked = &self.rotation[self.current];
        let name = if asked.is_fo {
            "answer.fo_ms"
        } else {
            "answer.cq_ms"
        };
        out.push((name, ms(self.answer_ns)));
        if let Some(r) = self.engine.last_propagation() {
            out.push(("propagate.residual_nulls", r.residual_nulls as f64));
            out.push((
                "propagate.residual_valuations",
                r.residual_valuations as f64,
            ));
            out.push((
                "propagate.us_per_valuation",
                self.answer_ns as f64 / 1e3 / r.residual_valuations.max(1) as f64,
            ));
        }
    }

    fn check(&self) -> Result<(), String> {
        let asked = &self.rotation[self.current];
        if asked.expected.is_none() || self.answers != asked.expected {
            return Err(format!(
                "answer: {:?} answers differ from the oracle's",
                asked.semantics
            ));
        }
        Ok(())
    }

    fn check_every(&self) -> u64 {
        1
    }

    fn cycle_len(&self) -> u64 {
        self.rotation.len() as u64
    }

    /// Parse plus chase of the answered source: the time its canonical
    /// universal solution takes to exist. Answer ops never chase, so it
    /// is sampled once after each op instead, outside the op's timing.
    fn sample_universal_ms(&self) -> Result<Option<f64>, String> {
        let text = instance_to_dsl(self.source);
        let budget = ChaseBudget::default();
        let t0 = Instant::now();
        let s = parse_instance(&text).map_err(|e| format!("source: {e}"))?;
        ChaseEngine::new(self.setting, &budget)
            .run(&s)
            .map_err(|e| format!("chase: {e}"))?;
        Ok(Some(t0.elapsed().as_secs_f64() * 1e3))
    }

    /// Every rotation query's answers from the propagation engine must
    /// equal those of the brute-force valuation oracle; the oracle's
    /// answers then check every op.
    fn check_setup(&mut self) -> Result<(), String> {
        let oracle = AnswerEngine::new(
            self.setting,
            self.source,
            AnswerConfig {
                engine: EvalEngine::Oracle,
                ..AnswerConfig::default()
            },
        )
        .map_err(|e| format!("oracle engine: {e}"))?;
        for i in 0..self.rotation.len() {
            let asked = &self.rotation[i];
            let expected = oracle
                .answers(&asked.query, asked.semantics)
                .map_err(|e| format!("oracle: {e}"))?;
            self.rotation[i].expected = Some(expected);
            self.prepare(i as u64);
            self.run(&mut Spans::new(Instant::now()))?;
            self.check()?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ update

/// The join CQ read after every resume.
const UPDATE_QUERY: &str = "Q(x,z) :- T3_0(x,y), T3_0(y,z)";

/// A provenance-tracked exchange chased once in setup; each op resumes
/// it with one independent two-row batch (one delete, one insert) and
/// reads the resumed target with a UCQ.
///
/// The prior is the same for every seed, and the seed orders two
/// populations that the ops cycle through: every source atom as the
/// delete, every absent tuple over the same constants as the insert.
/// A few source atoms sit under a large share of the target, so
/// deleting one of them makes DRed retract and re-derive thousands of
/// atoms; cycling through whole populations gives every run the same
/// share of those heavy ops, where independent random draws would not.
pub struct Update {
    setting: Setting,
    budget: ChaseBudget,
    base: Instance,
    prior: ChaseSuccess,
    query: Query,
    deletes: Vec<Atom>,
    inserts: Vec<Atom>,
    delta: SourceDelta,
    out: Option<UpdateOut>,
}

struct UpdateOut {
    resumed: ChaseSuccess,
    answers: Answers,
    universal_ns: u64,
    eval_ns: u64,
}

const UPDATE_CONSTANTS: usize = 8;
const UPDATE_TUPLES: usize = 64;
/// Generator seed of the prior's source, fixed like the setting's.
const UPDATE_BASE_SEED: u64 = 5;

impl Update {
    pub fn new(seed: u64) -> Result<Update, String> {
        let setting = reparse_setting(&layered_setting(&LayeredConfig {
            with_egds: false,
            layers: 5,
            rels_per_layer: 1,
            up_tgds_per_layer: 1,
            join_tgds_per_layer: 2,
            seed: 5,
            ..LayeredConfig::default()
        }))?;
        let text = instance_to_dsl(&random_source(
            &setting.source,
            &SourceConfig {
                num_constants: UPDATE_CONSTANTS,
                tuples_per_relation: UPDATE_TUPLES,
                seed: UPDATE_BASE_SEED,
            },
        ));
        let base = parse_instance(&text).map_err(|e| format!("source: {e}"))?;
        let budget = ChaseBudget::default();
        let prior = ChaseEngine::new(&setting, &budget)
            .with_provenance(true)
            .run(&base)
            .map_err(|e| format!("chase: {e}"))?;
        let query = parse_query(UPDATE_QUERY).map_err(|e| format!("query: {e}"))?;
        let mut inserts = Vec::new();
        for (rel, arity) in setting.source.relations() {
            let combos = UPDATE_CONSTANTS.pow(arity as u32);
            for mut code in 0..combos {
                let args: Vec<Value> = (0..arity)
                    .map(|_| {
                        let c = Value::konst(&format!("c{}", code % UPDATE_CONSTANTS));
                        code /= UPDATE_CONSTANTS;
                        c
                    })
                    .collect();
                let atom = Atom::new(rel, args);
                if !base.contains(&atom) {
                    inserts.push(atom);
                }
            }
        }
        let mut deletes = base.sorted_atoms();
        shuffle(&mut deletes, mix(seed, 1));
        shuffle(&mut inserts, mix(seed, 2));
        if deletes.is_empty() || inserts.is_empty() {
            return Err("update: no source atom to delete or tuple to insert".into());
        }
        Ok(Update {
            setting,
            budget,
            base,
            prior,
            query,
            deletes,
            inserts,
            delta: SourceDelta::new(),
            out: None,
        })
    }

    fn engine(&self) -> ChaseEngine<'_> {
        ChaseEngine::new(&self.setting, &self.budget).with_provenance(true)
    }
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(xs: &mut [T], seed: u64) {
    for i in (1..xs.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

impl Workload for Update {
    fn op_name(&self) -> &'static str {
        "update"
    }

    fn prepare(&mut self, i: u64) {
        self.out = None;
        let i = i as usize;
        self.delta = SourceDelta::new();
        self.delta
            .delete(self.deletes[i % self.deletes.len()].clone());
        self.delta
            .insert(self.inserts[i % self.inserts.len()].clone());
    }

    fn run(&mut self, spans: &mut Spans) -> Result<(), String> {
        let t0 = Instant::now();
        let engine = self.engine();
        let (resumed, _) = spans.time("chase.resume", || engine.resume(&self.prior, &self.delta));
        let resumed = resumed.map_err(|e| format!("resume: {e}"))?;
        let universal_ns = t0.elapsed().as_nanos() as u64;
        let (answers, eval_ns) = spans.time("query.ucq_certain_answers", || {
            ucq_certain_answers(&self.query, &resumed.target)
        });
        self.out = Some(UpdateOut {
            resumed,
            answers,
            universal_ns,
            eval_ns,
        });
        Ok(())
    }

    fn universal_ns(&self) -> Option<u64> {
        self.out.as_ref().map(|o| o.universal_ns)
    }

    fn layers(&mut self, out: &mut Layers) {
        let Some(o) = &self.out else { return };
        let s = &o.resumed.stats;
        chase_layers(out, &o.resumed);
        out.push(("resume.ms", ms(o.universal_ns)));
        out.push(("resume.batch_rows", self.delta.len() as f64));
        out.push(("resume.atoms_retracted", s.atoms_retracted as f64));
        out.push(("resume.atoms_rederived", s.atoms_rederived as f64));
        out.push((
            "resume.rederive_ratio",
            ratio(s.atoms_rederived, s.atoms_retracted),
        ));
        out.push(("eval.ucq_ms", ms(o.eval_ns)));
        out.push(("eval.answers", o.answers.len() as f64));
        // The copy of the prior result that every resume starts from,
        // timed on its own.
        let t0 = Instant::now();
        let copy = std::hint::black_box(self.prior.result.clone());
        out.push(("instance.clone_ms", t0.elapsed().as_secs_f64() * 1e3));
        drop(copy);
    }

    fn check(&self) -> Result<(), String> {
        let o = self.out.as_ref().ok_or("no output to check")?;
        let updated = self.delta.applied(&self.base);
        if !self.setting.is_solution(&updated, &o.resumed.target) {
            return Err("update: resumed target is not a solution".into());
        }
        let fresh = self
            .engine()
            .run(&updated)
            .map_err(|e| format!("re-chase: {e}"))?;
        if ucq_certain_answers(&self.query, &fresh.target) != o.answers {
            return Err("update: UCQ answers differ from a fresh chase's".into());
        }
        Ok(())
    }

    fn check_every(&self) -> u64 {
        64
    }

    fn cycle_len(&self) -> u64 {
        self.deletes.len() as u64
    }

    fn check_setup(&mut self) -> Result<(), String> {
        if !self.setting.is_solution(&self.base, &self.prior.target) {
            return Err("update: initial chase is not a solution".into());
        }
        Ok(())
    }
}
