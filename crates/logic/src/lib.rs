//! # dex-logic
//!
//! The logical layer of the data-exchange engine: first-order formulas
//! with active-domain evaluation, conjunctive matching, dependencies
//! (s-t tgds, target tgds, egds), data-exchange settings, query ASTs, a
//! text DSL parser, and the weak/rich acyclicity analyses of Definitions
//! 6.5 and 7.3 of Hernich & Schweikardt (PODS 2007).

pub mod acyclicity;
pub mod dependency;
pub mod formula;
pub mod matcher;
pub mod parser;
pub mod query;
pub mod setting;
pub mod to_dsl;

pub use acyclicity::{
    dependency_graph, extended_dependency_graph, is_richly_acyclic, is_weakly_acyclic,
    position_ranks, DependencyGraph, Position,
};
pub use dependency::{Body, Dependency, DependencyError, Egd, EgdScan, EgdViolation, Tgd};
pub use formula::{
    eval, eval_with_domain, quantification_domain, Assignment, FAtom, Formula, Term, Var,
};
pub use parser::{
    parse_delta, parse_dependency, parse_formula, parse_instance, parse_query, parse_setting,
    ParseError,
};
pub use query::{ConjunctiveQuery, FoQuery, Query, QueryError, UnionQuery};
pub use setting::{Setting, SettingError};
pub use to_dsl::{instance_to_dsl, setting_to_dsl};
