//! Differential tests of the allocation-free state combination against the
//! collecting implementation it replaced, kept here as the reference: every
//! answer must agree bit for bit, and every error must be the same error.

use archrel_model::{CompletionModel, DependencyModel, ModelError, Probability};
use proptest::prelude::*;

use super::{state_failure_probability, RequestFailure};
use crate::Result;

/// The `Vec`-per-request `Probability::at_least` the stack DP replaced.
fn reference_at_least(k: usize, probs: &[Probability]) -> Probability {
    let n = probs.len();
    if k == 0 {
        return Probability::ONE;
    }
    if k > n {
        return Probability::ZERO;
    }
    let mut dp = vec![0.0_f64; k + 1];
    dp[0] = 1.0;
    for p in probs {
        let p = p.value();
        let mut next = vec![0.0_f64; k + 1];
        next[k] = dp[k];
        for j in 0..k {
            next[j] += dp[j] * (1.0 - p);
            next[j + 1] += dp[j] * p;
        }
        dp = next;
    }
    Probability::new(dp[k].clamp(0.0, 1.0)).unwrap()
}

/// The collecting `state_failure_probability` the iterator form replaced.
fn reference_state_failure(
    completion: CompletionModel,
    dependency: DependencyModel,
    requests: &[RequestFailure],
) -> Result<Probability> {
    if requests.is_empty() {
        return Ok(Probability::ZERO);
    }
    let k = match completion {
        CompletionModel::And => requests.len(),
        CompletionModel::Or => 1,
        CompletionModel::KOutOfN { k } => {
            if k == 0 || k > requests.len() {
                return Err(ModelError::InvalidKOutOfN {
                    k,
                    n: requests.len(),
                }
                .into());
            }
            k
        }
    };
    let p = match dependency {
        DependencyModel::Independent => {
            let successes: Vec<Probability> =
                requests.iter().map(|r| r.total().complement()).collect();
            reference_at_least(k, &successes).complement()
        }
        DependencyModel::Shared => {
            let no_ext = Probability::all(requests.iter().map(|r| r.external.complement()));
            let internal_successes: Vec<Probability> =
                requests.iter().map(|r| r.internal.complement()).collect();
            no_ext
                .both(reference_at_least(k, &internal_successes))
                .complement()
        }
    };
    Ok(p)
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

/// Probabilities weighted toward the edges of `[0, 1]`: exact 0 and 1,
/// `1 − ε`, the smallest subnormal, a mid subnormal, and uniform draws.
fn random_probability(rng: &mut Mix) -> Probability {
    let v = match rng.below(8) {
        0 => 0.0,
        1 => 1.0,
        2 => 1.0 - f64::EPSILON,
        3 => f64::from_bits(1),
        4 => f64::MIN_POSITIVE / 3.0,
        _ => (rng.next() >> 11) as f64 / (1u64 << 53) as f64,
    };
    Probability::new(v).unwrap()
}

fn same(got: Result<Probability>, want: Result<Probability>, what: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(
            g.value().to_bits(),
            w.value().to_bits(),
            "{what}: {} vs reference {}",
            g.value(),
            w.value()
        ),
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}"),
        (g, w) => panic!("{what}: {g:?} vs reference {w:?}"),
    }
}

/// One case: `n` in `0..=40` (past the 32-slot stack buffer), every `k` in
/// `0..=n + 1` for `at_least`, and every completion × dependency pair for
/// the state combination, with a random `KOutOfN` quorum in `0..=n + 1`.
fn check_case(seed: u64) {
    let mut rng = Mix(seed);
    let n = rng.below(41);
    let probs: Vec<Probability> = (0..n).map(|_| random_probability(&mut rng)).collect();
    for k in 0..=n + 1 {
        let got = Probability::at_least(k, &probs);
        let want = reference_at_least(k, &probs);
        assert_eq!(
            got.value().to_bits(),
            want.value().to_bits(),
            "at_least(k={k}, n={n})"
        );
    }
    let requests: Vec<RequestFailure> = (0..n)
        .map(|_| RequestFailure::new(random_probability(&mut rng), random_probability(&mut rng)))
        .collect();
    let quorum = rng.below(n + 2);
    for completion in [
        CompletionModel::And,
        CompletionModel::Or,
        CompletionModel::KOutOfN { k: quorum },
    ] {
        for dependency in [DependencyModel::Independent, DependencyModel::Shared] {
            same(
                state_failure_probability(completion, dependency, &requests),
                reference_state_failure(completion, dependency, &requests),
                &format!("{completion:?} {dependency:?} n={n}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn state_combination_is_bitwise_the_reference(seed in proptest::arbitrary::any::<u64>()) {
        check_case(seed);
    }
}

/// The stack/heap boundary and the quorum errors, pinned deterministically:
/// `k + 1` of 31, 32 and 33 slots, and `k` of 0 and `n + 1` on every
/// dependency model.
#[test]
fn buffer_boundary_and_quorum_errors() {
    let mut rng = Mix(7);
    let requests: Vec<RequestFailure> = (0..40)
        .map(|_| RequestFailure::new(random_probability(&mut rng), random_probability(&mut rng)))
        .collect();
    for n in [30, 31, 32, 33, 40] {
        let requests = &requests[..n];
        for k in [0, 1, 30, 31, 32, n, n + 1] {
            for dependency in [DependencyModel::Independent, DependencyModel::Shared] {
                let completion = CompletionModel::KOutOfN { k };
                same(
                    state_failure_probability(completion, dependency, requests),
                    reference_state_failure(completion, dependency, requests),
                    &format!("k={k} n={n} {dependency:?}"),
                );
            }
        }
    }
    let err = state_failure_probability(
        CompletionModel::KOutOfN { k: 3 },
        DependencyModel::Shared,
        &requests[..2],
    )
    .unwrap_err();
    assert_eq!(
        err,
        ModelError::InvalidKOutOfN { k: 3, n: 2 }.into(),
        "quorum errors keep their shape"
    );
}
