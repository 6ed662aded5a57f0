//! Failure-structure augmentation (paper §3.2, Fig. 5, and the loop of
//! `Pfail_Alg` lines 8–12).
//!
//! Given a composite service's flow, concrete bindings for its formal
//! parameters, and the already-computed per-state failure probabilities
//! `p(i, Fail)`, this module produces the concrete absorbing DTMC: a new
//! `Fail` absorbing state, a transition `i → Fail` with probability
//! `p(i, Fail)` from every request-carrying state, and every pre-existing
//! transition out of `i` reweighted by `1 − p(i, Fail)`. Transitions out of
//! `Start` are left untouched — `Start` represents no real behavior, so no
//! failure can occur in it.

use std::collections::BTreeMap;

use archrel_expr::Bindings;
use archrel_markov::{Dtmc, DtmcBuilder, MarkovError};
use archrel_model::{CompositeService, Flow, Probability, StateId};

use crate::{CoreError, Result};

/// A state of the failure-augmented chain: the flow's own states plus the
/// added `Fail` absorbing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AugmentedState {
    /// A state of the original flow (`Start`, `End`, or named).
    Flow(StateId),
    /// The added absorbing failure state.
    Fail,
}

impl std::fmt::Display for AugmentedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AugmentedState::Flow(s) => write!(f, "{s}"),
            AugmentedState::Fail => f.write_str("Fail"),
        }
    }
}

/// Builds the failure-augmented DTMC of `service` under `env`.
///
/// `state_failures` maps each named flow state to its `p(i, Fail)`; states
/// absent from the map are treated as failure-free (pure routing states).
/// This is a thin wrapper over the index-aligned path the evaluator uses.
///
/// # Errors
///
/// - [`CoreError::Markov`] ([`MarkovError::UnknownState`]) when a key of
///   `state_failures` is not a named state of the flow;
/// - [`CoreError::Expr`] when a transition probability fails to evaluate;
/// - [`CoreError::BadTransitions`] when a state's evaluated outgoing
///   probabilities do not sum to one (within 1e-9) or leave `[0, 1]`;
/// - [`CoreError::Markov`] when the resulting chain is malformed.
pub fn augmented_chain(
    service: &CompositeService,
    env: &Bindings,
    state_failures: &BTreeMap<StateId, Probability>,
) -> Result<Dtmc<AugmentedState>> {
    let flow = service.flow();
    let named = flow.states().len();
    let mut failures = vec![Probability::ZERO; named];
    for (id, &failure) in state_failures {
        match flow.index_of(id).filter(|&i| i < named) {
            Some(i) => failures[i] = failure,
            None => {
                return Err(MarkovError::UnknownState {
                    state: format!("{:?}", AugmentedState::Flow(id.clone())),
                }
                .into())
            }
        }
    }
    augmented_chain_aligned(service, env, &failures)
}

/// [`augmented_chain`] with the per-state failures aligned with the flow's
/// named states (`failures[i]` is `p(i, Fail)` of `flow.states()[i]`).
///
/// Rows are summed and parallel edges merged over the flow's dense state
/// index; the chain comes out exactly as the `StateId`-keyed construction
/// declared it (see [`ChainLayout`]).
///
/// # Errors
///
/// As [`augmented_chain`], bar the unknown-key case.
pub(crate) fn augmented_chain_aligned(
    service: &CompositeService,
    env: &Bindings,
    failures: &[Probability],
) -> Result<Dtmc<AugmentedState>> {
    let flow = service.flow();
    debug_assert_eq!(failures.len(), flow.states().len());
    let bad = |state: &StateId, sum: f64| CoreError::BadTransitions {
        service: service.id().to_string(),
        state: state.to_string(),
        sum,
    };

    // Evaluate all transition probabilities and validate row sums first so
    // the error messages speak flow language, not Markov language.
    let mut values = Vec::with_capacity(flow.transitions().len());
    for t in flow.transitions() {
        let p = t.probability.eval(env)?;
        if !(0.0..=1.0 + 1e-9).contains(&p) {
            return Err(bad(&t.from, p));
        }
        values.push(p);
    }
    if let Some((s, sum)) = unbalanced_row(flow, &values) {
        return Err(bad(flow.id_at(s), sum));
    }

    let layout = ChainLayout::new(flow);
    let mut edge_values = Vec::new();
    layout.edge_values(flow, &values, failures, &mut edge_values);
    build_chain(flow, &layout, &edge_values, failures)
}

/// The first state, in [`StateId`] order, whose outgoing transition values
/// (summed in declaration order) miss one by more than 1e-9, with that sum.
pub(crate) fn unbalanced_row(flow: &Flow, values: &[f64]) -> Option<(usize, f64)> {
    flow.id_order().iter().find_map(|&s| {
        let row = flow.outgoing_at(s);
        if row.is_empty() {
            return None;
        }
        let mut sum = 0.0;
        for &t in row {
            sum += values[t];
        }
        ((sum - 1.0).abs() > 1e-9).then_some((s, sum))
    })
}

/// The structure of a flow's failure-augmented chain, fixed by the flow
/// alone: which transitions merge into one chain edge, and the order the
/// chain declares its edges in.
///
/// That order is frozen. The chain's state order and adjacency order are
/// what [`archrel_markov::structure_fingerprint`] hashes, and the plan cache
/// and artifact archives are keyed on the fingerprint. It is the order the
/// original construction produced by walking `BTreeMap`s keyed by
/// [`StateId`]: edges sorted by `(from, to)` in `StateId` order (`Start`,
/// `End`, then named states by name), parallel transitions summed in
/// declaration order.
#[derive(Debug)]
pub(crate) struct ChainLayout {
    /// Merged `(from, to)` edges as flow state indices, in the order the
    /// chain declares them.
    pub(crate) edges: Vec<(usize, usize)>,
    /// The transitions merged into edge `e` are
    /// `merged[offsets[e]..offsets[e + 1]]`, in declaration order.
    offsets: Vec<usize>,
    merged: Vec<usize>,
}

impl ChainLayout {
    /// The layout of `flow`'s chain, in `O(T log d)` for rows of degree `d`.
    pub(crate) fn new(flow: &Flow) -> ChainLayout {
        let mut rank = vec![0; flow.index_len()];
        for (r, &s) in flow.id_order().iter().enumerate() {
            rank[s] = r;
        }
        let ends = flow.transition_ends();
        let mut edges = Vec::new();
        let mut offsets = Vec::new();
        let mut merged = Vec::with_capacity(ends.len());
        let mut row: Vec<usize> = Vec::new();
        for &from in flow.id_order() {
            row.clear();
            row.extend_from_slice(flow.outgoing_at(from));
            // Stable: parallel transitions keep their declaration order.
            row.sort_by_key(|&t| rank[ends[t].1]);
            for &t in &row {
                let edge = (from, ends[t].1);
                if edges.last() != Some(&edge) {
                    edges.push(edge);
                    offsets.push(merged.len());
                }
                merged.push(t);
            }
        }
        offsets.push(merged.len());
        ChainLayout {
            edges,
            offsets,
            merged,
        }
    }

    /// Transition indices merged into edge `e`, in declaration order.
    pub(crate) fn merged(&self, e: usize) -> &[usize] {
        &self.merged[self.offsets[e]..self.offsets[e + 1]]
    }

    /// Fills `out` with every edge's value: its transitions' `values`
    /// summed in declaration order, scaled by `1 − p(from, Fail)` (`Start`
    /// never fails).
    pub(crate) fn edge_values(
        &self,
        flow: &Flow,
        values: &[f64],
        failures: &[Probability],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        for (e, &(from, _)) in self.edges.iter().enumerate() {
            let mut p = 0.0;
            for &t in self.merged(e) {
                p += values[t];
            }
            let failure = if from == flow.start_index() {
                Probability::ZERO
            } else {
                failures[from]
            };
            out.push(p * failure.complement().value());
        }
    }
}

/// Declares the augmented chain in `layout`'s frozen order: `End`, `Fail`,
/// then every flow state at its first appearance along the edges; the
/// merged edges (`edge_values` aligned with `layout.edges`), then one
/// `→ Fail` edge per failing named state in `StateId` order.
pub(crate) fn build_chain(
    flow: &Flow,
    layout: &ChainLayout,
    edge_values: &[f64],
    failures: &[Probability],
) -> Result<Dtmc<AugmentedState>> {
    const FAIL: usize = 1;
    let mut position = vec![usize::MAX; flow.index_len()];
    position[flow.end_index()] = 0;
    let mut labels = vec![AugmentedState::Flow(StateId::End), AugmentedState::Fail];
    for &(from, to) in &layout.edges {
        for s in [from, to] {
            if position[s] == usize::MAX {
                position[s] = labels.len();
                labels.push(AugmentedState::Flow(flow.id_at(s).clone()));
            }
        }
    }
    let mut builder = DtmcBuilder::new();
    for label in labels {
        builder = builder.state(label);
    }
    for (&(from, to), &p) in layout.edges.iter().zip(edge_values) {
        builder = builder.transition_at(position[from], position[to], p);
    }
    let named = flow.states().len();
    for &s in flow.id_order().iter().filter(|&&s| s < named) {
        if !failures[s].is_zero() {
            builder = builder.transition_at(position[s], FAIL, failures[s].value());
        }
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_expr::Expr;
    use archrel_markov::AbsorbingAnalysis;
    use archrel_model::{FlowBuilder, FlowState};

    fn two_state_service(q: f64) -> CompositeService {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .state(FlowState::new("2", vec![]))
            .transition(StateId::Start, "1", Expr::num(q))
            .transition(StateId::Start, "2", Expr::num(1.0 - q))
            .transition("1", "2", Expr::one())
            .transition("2", StateId::End, Expr::one())
            .build()
            .unwrap();
        CompositeService::new("svc", vec![], flow).unwrap()
    }

    fn failures(f1: f64, f2: f64) -> BTreeMap<StateId, Probability> {
        BTreeMap::from([
            (StateId::named("1"), Probability::new(f1).unwrap()),
            (StateId::named("2"), Probability::new(f2).unwrap()),
        ])
    }

    /// The search-flow shape of Fig. 5: Pfail = (1-q)·f2 + q·(1-(1-f1)(1-f2)).
    #[test]
    fn absorption_matches_hand_computation() {
        let (q, f1, f2) = (0.9, 0.01, 0.002);
        let svc = two_state_service(q);
        let chain = augmented_chain(&svc, &Bindings::new(), &failures(f1, f2)).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_end = analysis
            .absorption_probability(
                &AugmentedState::Flow(StateId::Start),
                &AugmentedState::Flow(StateId::End),
            )
            .unwrap();
        let expected_success = q * (1.0 - f1) * (1.0 - f2) + (1.0 - q) * (1.0 - f2);
        assert!((p_end - expected_success).abs() < 1e-12);
        // Complement goes to Fail.
        let p_fail = analysis
            .absorption_probability(&AugmentedState::Flow(StateId::Start), &AugmentedState::Fail)
            .unwrap();
        assert!((p_end + p_fail - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_failures_reach_end_certainly() {
        let svc = two_state_service(0.5);
        let chain = augmented_chain(&svc, &Bindings::new(), &BTreeMap::new()).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_end = analysis
            .absorption_probability(
                &AugmentedState::Flow(StateId::Start),
                &AugmentedState::Flow(StateId::End),
            )
            .unwrap();
        assert!((p_end - 1.0).abs() < 1e-12);
        // Fail state exists but is unreachable.
        assert!(chain.index_of(&AugmentedState::Fail).is_some());
    }

    #[test]
    fn certain_failure_absorbs_everything() {
        let svc = two_state_service(1.0);
        let chain = augmented_chain(&svc, &Bindings::new(), &failures(1.0, 1.0)).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_fail = analysis
            .absorption_probability(&AugmentedState::Flow(StateId::Start), &AugmentedState::Fail)
            .unwrap();
        assert!((p_fail - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parametric_transitions_use_bindings() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .state(FlowState::new("2", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition(StateId::Start, "2", Expr::one() - Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .transition("2", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let env = Bindings::new().with("q", 0.25);
        let chain = augmented_chain(&svc, &env, &failures(1.0, 0.0)).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_end = analysis
            .absorption_probability(
                &AugmentedState::Flow(StateId::Start),
                &AugmentedState::Flow(StateId::End),
            )
            .unwrap();
        // Only the 1-q branch survives (state 1 always fails).
        assert!((p_end - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unbound_parameter_is_reported() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let err = augmented_chain(&svc, &Bindings::new(), &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::Expr(_)));
    }

    #[test]
    fn bad_row_sum_is_reported() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let env = Bindings::new().with("q", 0.5);
        let err = augmented_chain(&svc, &env, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::BadTransitions { .. }));
    }

    #[test]
    fn out_of_range_probability_is_reported() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let env = Bindings::new().with("q", 1.5);
        let err = augmented_chain(&svc, &env, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::BadTransitions { .. }));
    }
}
