use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use archrel_expr::Expr;
use serde::{Deserialize, Serialize};

use crate::{InternalFailureModel, ModelError, Result, ServiceId};

/// Identifier of a state in a service flow.
///
/// `Start` and `End` are the distinguished entry and success states of every
/// flow (paper §3); user states carry a name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StateId {
    /// Entry point of the flow; represents no real behavior, so no failure
    /// can occur in it (paper §3.2).
    Start,
    /// Absorbing state representing successful completion.
    End,
    /// A user-defined state holding service requests.
    Named(Arc<str>),
}

impl StateId {
    /// Creates a named state id.
    pub fn named(name: impl AsRef<str>) -> StateId {
        StateId::Named(Arc::from(name.as_ref()))
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateId::Start => f.write_str("Start"),
            StateId::End => f.write_str("End"),
            StateId::Named(n) => f.write_str(n),
        }
    }
}

impl From<&str> for StateId {
    fn from(s: &str) -> StateId {
        StateId::named(s)
    }
}

impl From<String> for StateId {
    fn from(s: String) -> StateId {
        StateId::named(&s)
    }
}

/// Completion model of a flow state (paper §3.2): when is the transition to
/// the next state enabled, given that some requests may have failed?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompletionModel {
    /// All requests in the state must succeed (eq. 4).
    And,
    /// At least one request must succeed (eq. 5) — models fault-tolerant
    /// replication inside a component.
    Or,
    /// At least `k` requests must succeed — the "k out of n" extension the
    /// paper names but does not analyze; implemented here for the ablation
    /// experiments.
    KOutOfN {
        /// Required number of successful requests.
        k: usize,
    },
}

/// Dependency model of a flow state (paper §3.2): are the requests
/// stochastically independent?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DependencyModel {
    /// Requests share no common service — failures are independent
    /// (eqs. 6–8).
    #[default]
    Independent,
    /// All requests in the state address the **same service through the same
    /// connector** (eqs. 9–13): one external failure takes all of them down.
    Shared,
}

/// Binding of a request to the connector that transports it, with the
/// connector's own actual parameters (the `[Sj, apj]` of the paper: e.g. the
/// RPC connector's `ip`/`op` sizes as functions of the caller's formals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectorBinding {
    /// The connector service.
    pub connector: ServiceId,
    /// Actual parameters handed to the connector, keyed by the connector's
    /// formal parameter names.
    pub actual_params: Vec<(String, Expr)>,
}

impl ConnectorBinding {
    /// Creates a binding with no parameters.
    pub fn new(connector: impl Into<ServiceId>) -> Self {
        ConnectorBinding {
            connector: connector.into(),
            actual_params: Vec::new(),
        }
    }

    /// Adds an actual parameter.
    #[must_use]
    pub fn with_param(mut self, name: impl Into<String>, expr: Expr) -> Self {
        self.actual_params.push((name.into(), expr));
        self
    }
}

/// A single cascading service request `Aij = call(Sj, apj)` (paper §3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCall {
    /// The requested service.
    pub target: ServiceId,
    /// Actual parameters, keyed by the target's formal parameter names; each
    /// expression is over the **caller's** formal parameters.
    pub actual_params: Vec<(String, Expr)>,
    /// The connector transporting the request; `None` models a direct,
    /// perfectly reliable association (like the paper's "local processing"
    /// connectors).
    pub connector: Option<ConnectorBinding>,
    /// Internal-failure law of the request (the caller-side `Pfail_int`).
    pub internal_failure: InternalFailureModel,
}

impl ServiceCall {
    /// Creates a call with no parameters, no connector, and no internal
    /// failure.
    pub fn new(target: impl Into<ServiceId>) -> Self {
        ServiceCall {
            target: target.into(),
            actual_params: Vec::new(),
            connector: None,
            internal_failure: InternalFailureModel::None,
        }
    }

    /// Adds an actual parameter.
    #[must_use]
    pub fn with_param(mut self, name: impl Into<String>, expr: Expr) -> Self {
        self.actual_params.push((name.into(), expr));
        self
    }

    /// Routes the request through a connector.
    #[must_use]
    pub fn via(mut self, binding: ConnectorBinding) -> Self {
        self.connector = Some(binding);
        self
    }

    /// Sets the internal-failure law.
    #[must_use]
    pub fn with_internal(mut self, model: InternalFailureModel) -> Self {
        self.internal_failure = model;
        self
    }
}

/// A state of a service flow: a set of requests plus the models governing
/// their joint completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowState {
    /// State identifier (always [`StateId::Named`] for states with calls).
    pub id: StateId,
    /// The requests `Ai1 ... Ain` issued in this state.
    pub calls: Vec<ServiceCall>,
    /// Completion model for the requests.
    pub completion: CompletionModel,
    /// Dependency model for the requests.
    pub dependency: DependencyModel,
}

impl FlowState {
    /// Creates a state with AND completion and independent requests — the
    /// paper's default combination.
    pub fn new(id: impl Into<StateId>, calls: Vec<ServiceCall>) -> Self {
        FlowState {
            id: id.into(),
            calls,
            completion: CompletionModel::And,
            dependency: DependencyModel::Independent,
        }
    }

    /// Sets the completion model.
    #[must_use]
    pub fn with_completion(mut self, completion: CompletionModel) -> Self {
        self.completion = completion;
        self
    }

    /// Sets the dependency model.
    #[must_use]
    pub fn with_dependency(mut self, dependency: DependencyModel) -> Self {
        self.dependency = dependency;
        self
    }
}

impl From<&str> for StateIdOrRef {
    fn from(s: &str) -> Self {
        StateIdOrRef(StateId::named(s))
    }
}

impl From<StateId> for StateIdOrRef {
    fn from(s: StateId) -> Self {
        StateIdOrRef(s)
    }
}

/// Conversion helper so builder methods accept `"name"`, `StateId::Start`,
/// and `StateId::End` uniformly.
#[derive(Debug, Clone)]
pub struct StateIdOrRef(StateId);

/// A transition of a service flow with a (possibly parametric) probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
    /// Transition probability as an expression over the service's formal
    /// parameters (paper §2: "both the transition probabilities and the
    /// actual parameters ... may be defined as functions of the formal
    /// parameters").
    pub probability: Expr,
}

/// The probabilistic flow (usage profile) of a composite service: a DTMC
/// skeleton whose nodes carry sets of service requests (paper §2, Fig. 1–2).
///
/// Every flow carries one dense state index, built once by
/// [`FlowBuilder::build`]: the named states are `0..n` in declaration
/// order, [`StateId::Start`] is `n` and [`StateId::End`] is `n + 1`. Each
/// state's outgoing transitions are stored as a CSR row of transition
/// indices in declaration order, so validation and walks run in `O(S + T)`
/// for `S` states and `T` transitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "FlowBuilder", into = "FlowBuilder")]
pub struct Flow {
    states: Vec<FlowState>,
    transitions: Vec<Transition>,
    index: FlowIndex,
}

/// The dense state index of a [`Flow`]; a function of its states and
/// transitions.
#[derive(Debug, Clone, PartialEq)]
struct FlowIndex {
    /// Named state name → index.
    by_name: HashMap<Arc<str>, usize>,
    /// `(from, to)` state indices of every transition, in declaration order.
    ends: Vec<(usize, usize)>,
    /// CSR offsets: the outgoing transitions of state `i` are
    /// `out[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Transition indices grouped by source state, each group in
    /// declaration order.
    out: Vec<usize>,
    /// Every state index in [`StateId`] order: `Start`, `End`, then the
    /// named states by name.
    id_order: Vec<usize>,
}

static START: StateId = StateId::Start;
static END: StateId = StateId::End;

impl Flow {
    /// The named states (in declaration order).
    pub fn states(&self) -> &[FlowState] {
        &self.states
    }

    /// Looks up a named state.
    pub fn state(&self, id: &StateId) -> Option<&FlowState> {
        match id {
            StateId::Named(name) => self.index.by_name.get(name).map(|&i| &self.states[i]),
            StateId::Start | StateId::End => None,
        }
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Outgoing transitions of a state, in declaration order.
    pub fn outgoing<'a>(&'a self, from: &StateId) -> impl Iterator<Item = &'a Transition> + 'a {
        let row = self.index_of(from).map_or(&[][..], |i| self.outgoing_at(i));
        row.iter().map(move |&t| &self.transitions[t])
    }

    /// Number of indexed states: the named states plus `Start` and `End`.
    pub fn index_len(&self) -> usize {
        self.states.len() + 2
    }

    /// Index of [`StateId::Start`].
    pub fn start_index(&self) -> usize {
        self.states.len()
    }

    /// Index of [`StateId::End`].
    pub fn end_index(&self) -> usize {
        self.states.len() + 1
    }

    /// Index of a state, if it belongs to the flow.
    pub fn index_of(&self, id: &StateId) -> Option<usize> {
        match id {
            StateId::Start => Some(self.start_index()),
            StateId::End => Some(self.end_index()),
            StateId::Named(name) => self.index.by_name.get(name).copied(),
        }
    }

    /// The state at index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.index_len()`.
    pub fn id_at(&self, i: usize) -> &StateId {
        id_at(&self.states, i)
    }

    /// `(from, to)` state indices of every transition, aligned with
    /// [`Flow::transitions`].
    pub fn transition_ends(&self) -> &[(usize, usize)] {
        &self.index.ends
    }

    /// Indices (into [`Flow::transitions`]) of the outgoing transitions of
    /// state `i`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.index_len()`.
    pub fn outgoing_at(&self, i: usize) -> &[usize] {
        &self.index.out[self.index.offsets[i]..self.index.offsets[i + 1]]
    }

    /// Every state index in [`StateId`] order: `Start` and `End` first, then
    /// the named states sorted by name.
    pub fn id_order(&self) -> &[usize] {
        &self.index.id_order
    }

    /// Every service id referenced by any call or connector in the flow.
    pub fn referenced_services(&self) -> BTreeSet<ServiceId> {
        let mut out = BTreeSet::new();
        for state in &self.states {
            for call in &state.calls {
                out.insert(call.target.clone());
                if let Some(c) = &call.connector {
                    out.insert(c.connector.clone());
                }
            }
        }
        out
    }
}

/// The id of index `i` over `states` (`Start` is `n`, `End` is `n + 1`).
fn id_at(states: &[FlowState], i: usize) -> &StateId {
    match i.checked_sub(states.len()) {
        None => &states[i].id,
        Some(0) => &START,
        Some(1) => &END,
        Some(_) => panic!(
            "state index {i} out of range for {} states",
            states.len() + 2
        ),
    }
}

impl TryFrom<FlowBuilder> for Flow {
    type Error = ModelError;

    fn try_from(builder: FlowBuilder) -> Result<Flow> {
        builder.build()
    }
}

impl From<Flow> for FlowBuilder {
    fn from(flow: Flow) -> FlowBuilder {
        FlowBuilder {
            states: flow.states,
            transitions: flow.transitions,
        }
    }
}

/// Builder for [`Flow`].
///
/// # Examples
///
/// The paper's `sort` flow (Fig. 1): a single state requesting
/// `cpu(list · log₂ list)`:
///
/// ```
/// use archrel_expr::Expr;
/// use archrel_model::{FlowBuilder, FlowState, ServiceCall, StateId};
///
/// # fn main() -> Result<(), archrel_model::ModelError> {
/// let cost = Expr::param("list") * Expr::param("list").log2();
/// let flow = FlowBuilder::new()
///     .state(FlowState::new(
///         "1",
///         vec![ServiceCall::new("cpu1").with_param("n", cost)],
///     ))
///     .transition(StateId::Start, "1", Expr::one())
///     .transition("1", StateId::End, Expr::one())
///     .build()?;
/// assert_eq!(flow.states().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowBuilder {
    states: Vec<FlowState>,
    transitions: Vec<Transition>,
}

impl FlowBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        FlowBuilder::default()
    }

    /// Adds a state.
    #[must_use]
    pub fn state(mut self, state: FlowState) -> Self {
        self.states.push(state);
        self
    }

    /// Adds a transition; `from`/`to` accept `"name"`, [`StateId::Start`],
    /// and [`StateId::End`].
    #[must_use]
    pub fn transition(
        mut self,
        from: impl Into<StateIdOrRef>,
        to: impl Into<StateIdOrRef>,
        probability: Expr,
    ) -> Self {
        self.transitions.push(Transition {
            from: from.into().0,
            to: to.into().0,
            probability,
        });
        self
    }

    /// Validates and builds the flow.
    ///
    /// Structural checks (parameter checks against callees happen later, at
    /// assembly validation):
    ///
    /// - state ids are unique and named;
    /// - every transition endpoint is `Start`, `End`, or a declared state;
    /// - `Start` has outgoing transitions and no incoming ones;
    /// - `End` has no outgoing transitions;
    /// - every named state has at least one outgoing transition;
    /// - `End` is reachable from `Start`;
    /// - constant transition probabilities lie in `[0, 1]`, and rows whose
    ///   probabilities are all constant sum to 1;
    /// - `k`-out-of-`n` states satisfy `1 ≤ k ≤ n`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MalformedFlow`] (or
    /// [`ModelError::InvalidKOutOfN`]) describing the first defect found.
    pub fn build(self) -> Result<Flow> {
        let malformed = |reason: String| ModelError::MalformedFlow {
            service: "<unattached flow>".to_string(),
            reason,
        };
        let n = self.states.len();
        let (start, end) = (n, n + 1);

        let mut by_name: HashMap<Arc<str>, usize> = HashMap::with_capacity(n);
        for (i, s) in self.states.iter().enumerate() {
            let StateId::Named(name) = &s.id else {
                return Err(malformed(format!(
                    "state `{}` is reserved and cannot carry calls",
                    s.id
                )));
            };
            if by_name.insert(name.clone(), i).is_some() {
                return Err(malformed(format!("duplicate state `{}`", s.id)));
            }
            if let CompletionModel::KOutOfN { k } = s.completion {
                if k == 0 || k > s.calls.len() {
                    return Err(ModelError::InvalidKOutOfN {
                        k,
                        n: s.calls.len(),
                    });
                }
            }
        }

        let index_of = |id: &StateId| match id {
            StateId::Start => Some(start),
            StateId::End => Some(end),
            StateId::Named(name) => by_name.get(name).copied(),
        };
        let mut ends = Vec::with_capacity(self.transitions.len());
        for t in &self.transitions {
            let Some(from) = index_of(&t.from) else {
                return Err(malformed(format!(
                    "transition from unknown state `{}`",
                    t.from
                )));
            };
            let Some(to) = index_of(&t.to) else {
                return Err(malformed(format!("transition to unknown state `{}`", t.to)));
            };
            if from == end {
                return Err(malformed(
                    "End state has an outgoing transition".to_string(),
                ));
            }
            if to == start {
                return Err(malformed(
                    "Start state has an incoming transition".to_string(),
                ));
            }
            if let Some(p) = t.probability.as_const() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(malformed(format!(
                        "constant transition probability {p} on `{}` -> `{}`",
                        t.from, t.to
                    )));
                }
            }
            ends.push((from, to));
        }

        // CSR rows by a counting sort on the source, which keeps each row in
        // declaration order.
        let mut offsets = vec![0; n + 3];
        for &(from, _) in &ends {
            offsets[from + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut out = vec![0; ends.len()];
        for (t, &(from, _)) in ends.iter().enumerate() {
            out[next[from]] = t;
            next[from] += 1;
        }
        let row = |i: usize| &out[offsets[i]..offsets[i + 1]];

        let mut id_order = Vec::with_capacity(n + 2);
        id_order.extend([start, end]);
        id_order.extend(0..n);
        id_order[2..].sort_unstable_by(|&a, &b| self.states[a].id.cmp(&self.states[b].id));
        let id = |i: usize| id_at(&self.states, i);

        // Outgoing coverage: Start and every named state must emit. Rows are
        // visited in `StateId` order so the first defect reported is stable.
        for &i in &id_order {
            if i != end && row(i).is_empty() {
                return Err(malformed(format!(
                    "state `{}` has no outgoing transition",
                    id(i)
                )));
            }
        }

        // Constant-only rows must sum to one.
        for &i in &id_order {
            if i == end {
                continue;
            }
            let consts = row(i)
                .iter()
                .map(|&t| self.transitions[t].probability.as_const());
            if consts.clone().all(|p| p.is_some()) {
                let sum: f64 = consts.flatten().sum();
                if (sum - 1.0).abs() > 1e-9 {
                    return Err(malformed(format!(
                        "outgoing probabilities of `{}` sum to {sum}",
                        id(i)
                    )));
                }
            }
        }

        // End reachable from Start (ignoring probabilities).
        let mut reached = vec![false; n + 2];
        reached[start] = true;
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &t in row(v) {
                let to = ends[t].1;
                if !reached[to] {
                    reached[to] = true;
                    stack.push(to);
                }
            }
        }
        if !reached[end] {
            return Err(malformed("End is unreachable from Start".to_string()));
        }

        Ok(Flow {
            states: self.states,
            transitions: self.transitions,
            index: FlowIndex {
                by_name,
                ends,
                offsets,
                out,
                id_order,
            },
        })
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> ServiceCall {
        ServiceCall::new("cpu").with_param("n", Expr::num(10.0))
    }

    fn simple_flow() -> Result<Flow> {
        FlowBuilder::new()
            .state(FlowState::new("work", vec![call()]))
            .transition(StateId::Start, "work", Expr::one())
            .transition("work", StateId::End, Expr::one())
            .build()
    }

    #[test]
    fn valid_flow_builds() {
        let flow = simple_flow().unwrap();
        assert_eq!(flow.states().len(), 1);
        assert_eq!(flow.transitions().len(), 2);
        assert_eq!(flow.outgoing(&StateId::Start).count(), 1);
        assert!(flow.state(&StateId::named("work")).is_some());
        assert!(flow.state(&StateId::named("zzz")).is_none());
    }

    #[test]
    fn referenced_services_include_connectors() {
        let c = ServiceCall::new("sort")
            .with_param("list", Expr::param("list"))
            .via(ConnectorBinding::new("rpc").with_param("ip", Expr::param("list")));
        let flow = FlowBuilder::new()
            .state(FlowState::new("s", vec![c]))
            .transition(StateId::Start, "s", Expr::one())
            .transition("s", StateId::End, Expr::one())
            .build()
            .unwrap();
        let refs = flow.referenced_services();
        assert!(refs.contains(&ServiceId::new("sort")));
        assert!(refs.contains(&ServiceId::new("rpc")));
    }

    #[test]
    fn duplicate_state_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn reserved_state_ids_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState {
                id: StateId::Start,
                calls: vec![],
                completion: CompletionModel::And,
                dependency: DependencyModel::Independent,
            })
            .transition(StateId::Start, StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let err = FlowBuilder::new()
            .transition(StateId::Start, "ghost", Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn end_cannot_emit_and_start_cannot_receive() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::one())
            .transition(StateId::End, "a", Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));

        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::Start, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn dangling_state_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("sink", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::num(0.5))
            .transition("a", "sink", Expr::num(0.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn unreachable_end_rejected() {
        // "a" loops forever.
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", "a", Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn constant_rows_must_sum_to_one() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::num(0.7))
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn parametric_rows_are_deferred() {
        // q + (1-q) can't be checked statically; accepted at build time.
        let q = Expr::param("q");
        let flow = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("b", vec![]))
            .transition(StateId::Start, "a", q.clone())
            .transition(StateId::Start, "b", Expr::one() - q)
            .transition("a", StateId::End, Expr::one())
            .transition("b", StateId::End, Expr::one())
            .build();
        assert!(flow.is_ok());
    }

    #[test]
    fn out_of_range_constant_probability_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::num(1.5))
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn k_out_of_n_bounds_checked() {
        let state = FlowState::new("a", vec![call(), call()])
            .with_completion(CompletionModel::KOutOfN { k: 3 });
        let err = FlowBuilder::new()
            .state(state)
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidKOutOfN { k: 3, n: 2 }));
    }

    #[test]
    fn state_id_display() {
        assert_eq!(StateId::Start.to_string(), "Start");
        assert_eq!(StateId::End.to_string(), "End");
        assert_eq!(StateId::named("x").to_string(), "x");
    }
}
