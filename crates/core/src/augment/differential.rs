//! Differential tests of the index-aligned augmentation against the
//! `StateId`-keyed construction it replaced, kept here as the reference:
//! the chains must agree state for state, edge for edge, bit for bit.

use archrel_expr::Expr;
use archrel_markov::structure_fingerprint;
use archrel_model::{FlowBuilder, FlowState};
use proptest::prelude::*;

use super::*;

/// The `BTreeMap`-keyed `augmented_chain` the dense index replaced.
fn reference_chain(
    service: &CompositeService,
    env: &Bindings,
    state_failures: &BTreeMap<StateId, Probability>,
) -> Result<Dtmc<AugmentedState>> {
    let flow = service.flow();
    let mut evaluated: Vec<(StateId, StateId, f64)> = Vec::new();
    let mut row_sums: BTreeMap<StateId, f64> = BTreeMap::new();
    for t in flow.transitions() {
        let p = t.probability.eval(env)?;
        if !(0.0..=1.0 + 1e-9).contains(&p) {
            return Err(CoreError::BadTransitions {
                service: service.id().to_string(),
                state: t.from.to_string(),
                sum: p,
            });
        }
        *row_sums.entry(t.from.clone()).or_insert(0.0) += p;
        evaluated.push((t.from.clone(), t.to.clone(), p));
    }
    for (state, sum) in &row_sums {
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::BadTransitions {
                service: service.id().to_string(),
                state: state.to_string(),
                sum: *sum,
            });
        }
    }

    let mut builder = DtmcBuilder::new()
        .state(AugmentedState::Flow(StateId::End))
        .state(AugmentedState::Fail);
    let mut merged: BTreeMap<(StateId, StateId), f64> = BTreeMap::new();
    for (from, to, p) in evaluated {
        *merged.entry((from, to)).or_insert(0.0) += p;
    }
    for ((from, to), p) in merged {
        let failure = match &from {
            StateId::Start => Probability::ZERO,
            named => state_failures
                .get(named)
                .copied()
                .unwrap_or(Probability::ZERO),
        };
        let scaled = p * failure.complement().value();
        builder = builder.transition(AugmentedState::Flow(from), AugmentedState::Flow(to), scaled);
    }
    for (state, failure) in state_failures {
        if failure.is_zero() {
            continue;
        }
        builder = builder.transition(
            AugmentedState::Flow(state.clone()),
            AugmentedState::Fail,
            failure.value(),
        );
    }
    Ok(builder.build()?)
}

/// Every state with its adjacency row, probabilities as raw bits.
type Bits = Vec<(AugmentedState, Vec<(AugmentedState, u64)>)>;

fn bits(chain: &Dtmc<AugmentedState>) -> Bits {
    chain
        .states()
        .iter()
        .map(|s| {
            let row = chain
                .successors(s)
                .unwrap()
                .into_iter()
                .map(|(t, p)| (t.clone(), p.to_bits()))
                .collect();
            (s.clone(), row)
        })
        .collect()
}

fn fingerprint(chain: &Dtmc<AugmentedState>) -> u64 {
    structure_fingerprint(
        chain,
        &AugmentedState::Flow(StateId::Start),
        &AugmentedState::Flow(StateId::End),
    )
}

/// Asserts two outcomes are the same chain bit for bit (and so the same
/// fingerprint), or the same error.
fn assert_same(got: Result<Dtmc<AugmentedState>>, expected: &Result<Dtmc<AugmentedState>>) {
    match (got, expected) {
        (Ok(got), Ok(expected)) => {
            assert_eq!(bits(&got), bits(expected));
            assert_eq!(fingerprint(&got), fingerprint(expected));
        }
        (Err(got), Err(expected)) => assert_eq!(format!("{got:?}"), format!("{expected:?}")),
        (got, expected) => panic!("indexed {got:?}, reference {expected:?}"),
    }
}

/// SplitMix64: a seed expands into one whole case.
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
}

/// A random composite whose rows mix constant shares, a `q` / `1 − q`
/// split, and parallel edges (a target drawn twice), with states declared
/// out of name order; `None` when the flow fails its own validation.
fn random_service(rng: &mut Mix) -> Option<CompositeService> {
    const NAMES: [&str; 10] = ["q7", "b", "x", "a", "m", "c10", "c2", "z", "d", "aa"];
    let n = 1 + rng.below(NAMES.len());
    let mut pool = NAMES.to_vec();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    let names = &pool[..n];
    let mut builder = FlowBuilder::new();
    for name in names {
        builder = builder.state(FlowState::new(*name, vec![]));
    }
    let target = |rng: &mut Mix| match rng.below(n + 1) {
        i if i == n => StateId::End,
        i => StateId::named(names[i]),
    };
    let sources = std::iter::once(StateId::Start).chain(names.iter().map(StateId::named));
    let mut transitions = Vec::new();
    for from in sources {
        let q = Expr::param("q");
        let row: Vec<Expr> = match rng.below(5) {
            0 => vec![q.clone(), Expr::one() - q],
            1 => vec![
                q.clone() * Expr::num(0.5),
                q.clone() * Expr::num(0.5),
                Expr::one() - q,
            ],
            // Summed in another order these land on another last bit.
            2 => [0.1, 0.2, 0.7].map(Expr::num).to_vec(),
            k => vec![Expr::num(1.0 / (k - 1) as f64); k - 1],
        };
        let mut to = target(rng);
        for p in row {
            // Half the edges repeat the previous target: parallel edges.
            if rng.below(2) == 0 {
                to = target(rng);
            }
            transitions.push((from.clone(), to.clone(), p));
        }
    }
    for i in (1..transitions.len()).rev() {
        transitions.swap(i, rng.below(i + 1));
    }
    for (from, to, p) in transitions {
        builder = builder.transition(from, to, p);
    }
    let flow = builder.build().ok()?;
    CompositeService::new("svc", vec!["q".to_string()], flow).ok()
}

/// `q` often sits on an edge of `[0, 1]`, so zero edges (dropped by the
/// builder) and out-of-range rows (typed errors) both occur.
fn random_q(rng: &mut Mix) -> f64 {
    [0.0, 1.0, 0.25, 0.6180339887, 1.5][rng.below(5)]
}

/// Failures with many exact zeros and certain failures.
fn random_failure(rng: &mut Mix) -> Probability {
    let p = match rng.below(4) {
        0 | 1 => 0.0,
        2 => 1.0,
        _ => (rng.next() % 1000) as f64 / 1000.0,
    };
    Probability::new(p).unwrap()
}

/// One case: the aligned path against the reference given every state,
/// and the public wrapper against the reference given only failing states.
fn check_case(seed: u64) -> bool {
    let mut rng = Mix(seed);
    let Some(service) = random_service(&mut rng) else {
        return false;
    };
    let env = Bindings::new().with("q", random_q(&mut rng));
    let failures: Vec<Probability> = service
        .flow()
        .states()
        .iter()
        .map(|_| random_failure(&mut rng))
        .collect();
    let full: BTreeMap<StateId, Probability> = service
        .flow()
        .states()
        .iter()
        .zip(&failures)
        .map(|(s, &f)| (s.id.clone(), f))
        .collect();
    let sparse: BTreeMap<StateId, Probability> = full
        .iter()
        .filter(|(_, f)| !f.is_zero())
        .map(|(id, &f)| (id.clone(), f))
        .collect();

    let expected = reference_chain(&service, &env, &full);
    assert_same(
        augmented_chain_aligned(&service, &env, &failures),
        &expected,
    );
    assert_same(augmented_chain(&service, &env, &full), &expected);
    assert_same(
        augmented_chain(&service, &env, &sparse),
        &reference_chain(&service, &env, &sparse),
    );
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn aligned_chain_is_bitwise_the_reference_chain(seed in proptest::arbitrary::any::<u64>()) {
        check_case(seed);
    }
}

#[test]
fn random_services_are_mostly_valid() {
    let valid = (0..1000).filter(|&seed| check_case(seed)).count();
    assert!(valid >= 300, "only {valid} of 1000 random flows were valid");
}

/// Parallel edges merge into one chain edge whose value is their sum in
/// declaration order; a failure-free state gets no `Fail` edge.
#[test]
fn merged_parallel_edges_and_zero_failures() {
    let flow = FlowBuilder::new()
        .state(FlowState::new("b", vec![]))
        .state(FlowState::new("a", vec![]))
        .transition("b", StateId::End, Expr::num(0.1))
        .transition(StateId::Start, "b", Expr::one())
        .transition("b", "a", Expr::num(0.7))
        .transition("a", StateId::End, Expr::one())
        .transition("b", StateId::End, Expr::num(0.2))
        .build()
        .unwrap();
    let service = CompositeService::new("svc", vec![], flow).unwrap();
    let failures = [Probability::new(0.5).unwrap(), Probability::ZERO];
    let chain = augmented_chain_aligned(&service, &Bindings::new(), &failures).unwrap();
    let full = BTreeMap::from([
        (StateId::named("b"), failures[0]),
        (StateId::named("a"), failures[1]),
    ]);
    assert_same(
        Ok(chain.clone()),
        &reference_chain(&service, &Bindings::new(), &full),
    );
    let b = AugmentedState::Flow(StateId::named("b"));
    let row = chain.successors(&b).unwrap();
    assert_eq!(row.len(), 3, "{row:?}");
    assert_eq!(row[0].0, &AugmentedState::Flow(StateId::End));
    assert_eq!(row[0].1.to_bits(), ((0.0 + 0.1 + 0.2) * 0.5f64).to_bits());
    assert_eq!(row[2], (&AugmentedState::Fail, 0.5));
    let a = AugmentedState::Flow(StateId::named("a"));
    assert_eq!(chain.successors(&a).unwrap().len(), 1);
}

#[test]
fn wrapper_rejects_failures_for_states_outside_the_flow() {
    let flow = FlowBuilder::new()
        .state(FlowState::new("a", vec![]))
        .transition(StateId::Start, "a", Expr::one())
        .transition("a", StateId::End, Expr::one())
        .build()
        .unwrap();
    let service = CompositeService::new("svc", vec![], flow).unwrap();
    for stray in [StateId::Start, StateId::End, StateId::named("ghost")] {
        let failures = BTreeMap::from([(stray, Probability::new(0.5).unwrap())]);
        let err = augmented_chain(&service, &Bindings::new(), &failures).unwrap_err();
        assert!(
            matches!(err, CoreError::Markov(MarkovError::UnknownState { .. })),
            "{err:?}"
        );
    }
}
