//! Differential tests of the indexed [`FlowBuilder::build`] against the
//! scan-based implementation it replaced, kept here as the reference.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;

use super::*;

/// The scan-based `build` the dense index replaced: every check and error
/// text as it was, returning the accepted states and transitions.
fn reference_build(b: FlowBuilder) -> Result<(Vec<FlowState>, Vec<Transition>)> {
    let malformed = |reason: String| ModelError::MalformedFlow {
        service: "<unattached flow>".to_string(),
        reason,
    };

    let mut seen = BTreeSet::new();
    for s in &b.states {
        match &s.id {
            StateId::Named(_) => {}
            other => {
                return Err(malformed(format!(
                    "state `{other}` is reserved and cannot carry calls"
                )))
            }
        }
        if !seen.insert(s.id.clone()) {
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

    let known = |id: &StateId| match id {
        StateId::Start | StateId::End => true,
        named => seen.contains(named),
    };
    for t in &b.transitions {
        if !known(&t.from) {
            return Err(malformed(format!(
                "transition from unknown state `{}`",
                t.from
            )));
        }
        if !known(&t.to) {
            return Err(malformed(format!("transition to unknown state `{}`", t.to)));
        }
        if t.from == StateId::End {
            return Err(malformed(
                "End state has an outgoing transition".to_string(),
            ));
        }
        if t.to == StateId::Start {
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
    }

    let mut has_outgoing: BTreeMap<StateId, bool> = BTreeMap::new();
    has_outgoing.insert(StateId::Start, false);
    for s in &b.states {
        has_outgoing.insert(s.id.clone(), false);
    }
    for t in &b.transitions {
        if let Some(flag) = has_outgoing.get_mut(&t.from) {
            *flag = true;
        }
    }
    for (id, emitted) in &has_outgoing {
        if !emitted {
            return Err(malformed(format!(
                "state `{id}` has no outgoing transition"
            )));
        }
    }

    for id in has_outgoing.keys() {
        let outgoing: Vec<&Transition> = b.transitions.iter().filter(|t| &t.from == id).collect();
        let consts: Vec<f64> = outgoing
            .iter()
            .filter_map(|t| t.probability.as_const())
            .collect();
        if consts.len() == outgoing.len() {
            let sum: f64 = consts.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(malformed(format!(
                    "outgoing probabilities of `{id}` sum to {sum}"
                )));
            }
        }
    }

    let mut reached: BTreeSet<StateId> = BTreeSet::new();
    let mut queue = VecDeque::from([StateId::Start]);
    reached.insert(StateId::Start);
    while let Some(v) = queue.pop_front() {
        for t in b.transitions.iter().filter(|t| t.from == v) {
            if reached.insert(t.to.clone()) {
                queue.push_back(t.to.clone());
            }
        }
    }
    if !reached.contains(&StateId::End) {
        return Err(malformed("End is unreachable from Start".to_string()));
    }

    Ok((b.states, b.transitions))
}

/// SplitMix64: a seed expands into one whole random flow.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// A random flow, valid about half the time. Defects are injected
/// independently, so several can meet in one flow: reserved and duplicate
/// states, bad `k`, unknown endpoints, edges out of `End` or into `Start`,
/// constants outside `[0, 1]`, states without outgoing edges, constant
/// rows off one, and an unreachable `End`. Parallel edges arise whenever a
/// row draws the same target twice; transitions are declared in shuffled
/// order, and names are not in declaration order.
fn random_flow(seed: u64) -> FlowBuilder {
    const NAMES: [&str; 8] = ["q", "b", "x", "a", "m", "c", "z", "d"];
    let mut rng = Mix(seed);
    let n = rng.below(NAMES.len() + 1);
    let mut pool = NAMES.to_vec();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    let mut ids: Vec<StateId> = pool[..n].iter().map(StateId::named).collect();
    if n > 1 && rng.one_in(12) {
        let (i, j) = (rng.below(n), rng.below(n));
        ids[i] = ids[j].clone();
    }
    if n > 0 && rng.one_in(16) {
        ids[rng.below(n)] = if rng.one_in(2) {
            StateId::Start
        } else {
            StateId::End
        };
    }

    let mut builder = FlowBuilder::new();
    for id in &ids {
        let calls = vec![ServiceCall::new("cpu"); rng.below(3)];
        let mut state = FlowState::new(id.clone(), calls);
        if rng.one_in(10) {
            let k = rng.below(4);
            state = state.with_completion(CompletionModel::KOutOfN { k });
        }
        builder = builder.state(state);
    }

    let mut targets: Vec<StateId> = ids.clone();
    targets.push(StateId::End);
    let unreachable_end = rng.one_in(10);
    let mut transitions = Vec::new();
    let sources = std::iter::once(StateId::Start).chain(ids.iter().cloned());
    for from in sources {
        if rng.one_in(14) {
            continue; // no outgoing edge
        }
        let k = 1 + rng.below(3);
        let parametric = rng.one_in(4);
        for e in 0..k {
            let mut to = targets[rng.below(targets.len())].clone();
            if unreachable_end && to == StateId::End {
                to = ids.first().cloned().unwrap_or(StateId::Start);
            }
            let share = 1.0 / k as f64;
            let p = if parametric && e == 0 {
                Expr::param("q") * Expr::num(share)
            } else {
                Expr::num(share)
            };
            transitions.push((from.clone(), to, p));
        }
    }
    if !transitions.is_empty() {
        if rng.one_in(10) {
            let i = rng.below(transitions.len());
            transitions[i].2 = Expr::num(0.9 * transitions[i].2.as_const().unwrap_or(0.5));
        }
        if rng.one_in(16) {
            let i = rng.below(transitions.len());
            transitions[i].2 = Expr::num(if rng.one_in(2) { 1.5 } else { -0.25 });
        }
    }
    if rng.one_in(16) {
        transitions.push((
            StateId::End,
            targets[rng.below(targets.len())].clone(),
            Expr::one(),
        ));
    }
    if rng.one_in(16) {
        transitions.push((StateId::Start, StateId::Start, Expr::one()));
    }
    if rng.one_in(16) {
        let ghost = StateId::named("ghost");
        let edge = if rng.one_in(2) {
            (ghost, StateId::End, Expr::one())
        } else {
            (StateId::Start, ghost, Expr::one())
        };
        transitions.push(edge);
    }
    for i in (1..transitions.len()).rev() {
        transitions.swap(i, rng.below(i + 1));
    }
    for (from, to, p) in transitions {
        builder = builder.transition(from, to, p);
    }
    builder
}

/// Checks one builder against the reference: the same accepted flow, or
/// the same first error. Returns the error text (empty when accepted).
fn check_against_reference(builder: FlowBuilder) -> String {
    let expected = reference_build(builder.clone());
    let got = builder.build();
    match (got, expected) {
        (Ok(flow), Ok((states, transitions))) => {
            assert_eq!(flow.states(), &states[..]);
            assert_eq!(flow.transitions(), &transitions[..]);
            check_index(&flow);
            String::new()
        }
        (Err(got), Err(expected)) => {
            assert_eq!(format!("{got:?}"), format!("{expected:?}"));
            got.to_string()
        }
        (got, expected) => panic!("indexed build {got:?}, reference {expected:?}"),
    }
}

/// Every index lookup agrees with a scan over the declared flow.
fn check_index(flow: &Flow) {
    let all: Vec<StateId> = flow
        .states()
        .iter()
        .map(|s| s.id.clone())
        .chain([StateId::Start, StateId::End])
        .collect();
    assert_eq!(flow.index_len(), all.len());
    for (i, id) in all.iter().enumerate() {
        assert_eq!(flow.index_of(id), Some(i));
        assert_eq!(flow.id_at(i), id);
        let scanned: Vec<usize> = (0..flow.transitions().len())
            .filter(|&t| &flow.transitions()[t].from == id)
            .collect();
        assert_eq!(flow.outgoing_at(i), &scanned[..]);
        let by_id: Vec<&Transition> = flow.outgoing(id).collect();
        let by_scan: Vec<&Transition> = scanned.iter().map(|&t| &flow.transitions()[t]).collect();
        assert_eq!(by_id, by_scan);
    }
    for (t, &(from, to)) in flow.transition_ends().iter().enumerate() {
        assert_eq!(flow.id_at(from), &flow.transitions()[t].from);
        assert_eq!(flow.id_at(to), &flow.transitions()[t].to);
    }
    let mut sorted = all.clone();
    sorted.sort();
    let ordered: Vec<StateId> = flow
        .id_order()
        .iter()
        .map(|&i| flow.id_at(i).clone())
        .collect();
    assert_eq!(ordered, sorted);
    assert_eq!(flow.index_of(&StateId::named("ghost")), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn indexed_build_matches_reference(seed in proptest::arbitrary::any::<u64>()) {
        check_against_reference(random_flow(seed));
    }
}

/// The generator reaches every outcome the differential test claims to
/// cover, so the property above is not vacuous.
#[test]
fn random_flows_cover_every_defect() {
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    for seed in 0..4000 {
        let text = check_against_reference(random_flow(seed));
        let kind = [
            "reserved",
            "duplicate",
            "k =",
            "from unknown",
            "to unknown",
            "End state has",
            "Start state has",
            "constant transition probability",
            "no outgoing",
            "sum to",
            "unreachable",
        ]
        .into_iter()
        .find(|k| text.contains(k))
        .unwrap_or(if text.is_empty() { "ok" } else { "other" });
        *outcomes.entry(kind.to_string()).or_default() += 1;
    }
    for kind in [
        "ok",
        "reserved",
        "duplicate",
        "k =",
        "from unknown",
        "to unknown",
        "End state has",
        "Start state has",
        "constant transition probability",
        "no outgoing",
        "sum to",
        "unreachable",
    ] {
        assert!(
            outcomes.contains_key(kind),
            "no `{kind}` outcome in {outcomes:?}"
        );
    }
    assert!(!outcomes.contains_key("other"), "{outcomes:?}");
    assert!(outcomes["ok"] >= 1000, "{outcomes:?}");
}

#[test]
fn parallel_edges_keep_declaration_order() {
    let flow = FlowBuilder::new()
        .state(FlowState::new("b", vec![]))
        .state(FlowState::new("a", vec![]))
        .transition("b", StateId::End, Expr::num(0.25))
        .transition(StateId::Start, "b", Expr::one())
        .transition("b", "a", Expr::num(0.5))
        .transition("a", StateId::End, Expr::one())
        .transition("b", StateId::End, Expr::num(0.25))
        .build()
        .unwrap();
    assert_eq!(flow.outgoing_at(0), &[0, 2, 4]);
    assert_eq!(flow.outgoing_at(flow.start_index()), &[1]);
    assert_eq!(flow.outgoing_at(flow.end_index()), &[] as &[usize]);
    assert_eq!(flow.id_order(), &[2, 3, 1, 0]);
}
