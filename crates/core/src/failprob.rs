//! Per-state failure probability `p(i, Fail)` — the paper's equations
//! (4)–(13) plus the k-out-of-n extension.
//!
//! A flow state holds requests `Ai1 ... Ain`; each request can fail
//! *internally* (in the caller's own operations, `Pfail_int`) or
//! *externally* (in the requested service or its connector, `Pfail_ext`,
//! eq. 13). How the individual failures combine into the state's failure
//! probability depends on the completion model (AND / OR / k-out-of-n) and
//! on whether the requests share their external service (§3.2).

use archrel_model::{CompletionModel, DependencyModel, ModelError, Probability};

use crate::Result;

/// Failure probabilities of one service request, already resolved:
/// `internal` is `Pfail_int(Aij)`, `external` is `Pfail_ext(Aij)` — the
/// combined connector + target failure of eq. 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestFailure {
    /// Probability of an internal (caller-side) failure.
    pub internal: Probability,
    /// Probability of an external (connector or target) failure.
    pub external: Probability,
}

impl RequestFailure {
    /// Creates a request-failure record.
    pub fn new(internal: Probability, external: Probability) -> Self {
        RequestFailure { internal, external }
    }

    /// Total failure probability of the request under independence of its
    /// internal and external failure causes (eq. 8):
    /// `Pr{fail} = 1 − (1 − Pint)(1 − Pext)`.
    pub fn total(&self) -> Probability {
        self.internal.either(self.external)
    }

    /// Combines a target-service failure probability and a connector failure
    /// probability into the external failure probability of eq. 13:
    /// `Pfail_ext = 1 − (1 − Pfail(S, ap))(1 − Pfail(C, [S, ap]))`.
    pub fn external_of(target: Probability, connector: Probability) -> Probability {
        target.either(connector)
    }
}

/// Computes `p(i, Fail)` for a state with the given requests, completion
/// model, and dependency model.
///
/// - **Independent** (no sharing): AND is eq. 6, OR is eq. 7, k-out-of-n is
///   the Poisson-binomial tail over per-request success probabilities.
/// - **Shared** (all requests address one service through one connector):
///   AND is eq. 11, OR is eq. 12. The general k-out-of-n form conditions on
///   the external-failure event exactly as eqs. 9–10: with no external
///   failure only internal failures matter (independent); with an external
///   failure every request fails.
///
/// A state with no requests never fails (`p = 0`): it models pure routing.
///
/// # Errors
///
/// Returns [`ModelError::InvalidKOutOfN`] (wrapped) when `k` is out of
/// range — normally prevented by flow validation.
pub fn state_failure_probability(
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
            // Success probability of each request: (1 - Pint)(1 - Pext).
            let successes = requests.iter().map(|r| r.total().complement());
            Probability::at_least_iter(k, successes).complement()
        }
        DependencyModel::Shared => {
            // Condition on the external-failure event (eqs. 9-10):
            //   P(no external failure) = prod_j (1 - Pext_j);
            //   given an external failure, all requests fail (no repair);
            //   given none, requests fail independently with Pint_j.
            let no_ext = Probability::all(requests.iter().map(|r| r.external.complement()));
            let internal_successes = requests.iter().map(|r| r.internal.complement());
            let k_succeed_given_no_ext = Probability::at_least_iter(k, internal_successes);
            no_ext.both(k_succeed_given_no_ext).complement()
        }
    };
    Ok(p)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn req(int: f64, ext: f64) -> RequestFailure {
        RequestFailure::new(p(int), p(ext))
    }

    const EPS: f64 = 1e-12;

    #[test]
    fn eq8_total_failure_of_one_request() {
        let r = req(0.1, 0.2);
        // 1 - 0.9 * 0.8 = 0.28
        assert!((r.total().value() - 0.28).abs() < EPS);
    }

    #[test]
    fn eq13_external_combination() {
        let e = RequestFailure::external_of(p(0.1), p(0.2));
        assert!((e.value() - 0.28).abs() < EPS);
    }

    #[test]
    fn empty_state_never_fails() {
        let f = state_failure_probability(CompletionModel::And, DependencyModel::Independent, &[])
            .unwrap();
        assert!(f.is_zero());
    }

    #[test]
    fn eq6_and_independent() {
        let rs = [req(0.1, 0.2), req(0.0, 0.3)];
        let f = state_failure_probability(CompletionModel::And, DependencyModel::Independent, &rs)
            .unwrap();
        // 1 - (1-0.28)(1-0.3)
        assert!((f.value() - (1.0 - 0.72 * 0.7)).abs() < EPS);
    }

    #[test]
    fn eq7_or_independent() {
        let rs = [req(0.1, 0.2), req(0.0, 0.3)];
        let f = state_failure_probability(CompletionModel::Or, DependencyModel::Independent, &rs)
            .unwrap();
        // product of per-request failures: 0.28 * 0.3
        assert!((f.value() - 0.28 * 0.3).abs() < EPS);
    }

    #[test]
    fn eq11_and_shared() {
        let rs = [req(0.1, 0.2), req(0.05, 0.25)];
        let f =
            state_failure_probability(CompletionModel::And, DependencyModel::Shared, &rs).unwrap();
        // 1 - prod(1-Pint) * prod(1-Pext)
        let expected = 1.0 - (0.9 * 0.95) * (0.8 * 0.75);
        assert!((f.value() - expected).abs() < EPS);
    }

    #[test]
    fn eq12_or_shared() {
        let rs = [req(0.1, 0.2), req(0.05, 0.25)];
        let f =
            state_failure_probability(CompletionModel::Or, DependencyModel::Shared, &rs).unwrap();
        // 1 - prod(1-Pext) * (1 - prod(Pint))
        let expected = 1.0 - (0.8 * 0.75) * (1.0 - 0.1 * 0.05);
        assert!((f.value() - expected).abs() < EPS);
    }

    /// The paper's §3.2 analytical observation: under fail-stop/no-repair,
    /// AND completion is *unaffected* by sharing (eq. 11 equals eq. 6+8).
    #[test]
    fn and_is_invariant_under_sharing() {
        let rs = [req(0.1, 0.2), req(0.05, 0.2), req(0.3, 0.2)];
        let independent =
            state_failure_probability(CompletionModel::And, DependencyModel::Independent, &rs)
                .unwrap();
        let shared =
            state_failure_probability(CompletionModel::And, DependencyModel::Shared, &rs).unwrap();
        assert!((independent.value() - shared.value()).abs() < EPS);
    }

    /// ... while OR completion is strictly hurt by sharing whenever the
    /// external failure probability is positive and internal failures are
    /// not certain.
    #[test]
    fn or_is_degraded_by_sharing() {
        let rs = [req(0.1, 0.2), req(0.05, 0.2)];
        let independent =
            state_failure_probability(CompletionModel::Or, DependencyModel::Independent, &rs)
                .unwrap();
        let shared =
            state_failure_probability(CompletionModel::Or, DependencyModel::Shared, &rs).unwrap();
        assert!(shared.value() > independent.value());
    }

    #[test]
    fn or_sharing_equal_when_no_external_failure() {
        let rs = [req(0.1, 0.0), req(0.05, 0.0)];
        let independent =
            state_failure_probability(CompletionModel::Or, DependencyModel::Independent, &rs)
                .unwrap();
        let shared =
            state_failure_probability(CompletionModel::Or, DependencyModel::Shared, &rs).unwrap();
        assert!((independent.value() - shared.value()).abs() < EPS);
    }

    #[test]
    fn k_out_of_n_interpolates_between_and_and_or() {
        let rs = [req(0.1, 0.1), req(0.2, 0.1), req(0.3, 0.2)];
        let and =
            state_failure_probability(CompletionModel::And, DependencyModel::Independent, &rs)
                .unwrap();
        let or = state_failure_probability(CompletionModel::Or, DependencyModel::Independent, &rs)
            .unwrap();
        let k3 = state_failure_probability(
            CompletionModel::KOutOfN { k: 3 },
            DependencyModel::Independent,
            &rs,
        )
        .unwrap();
        let k1 = state_failure_probability(
            CompletionModel::KOutOfN { k: 1 },
            DependencyModel::Independent,
            &rs,
        )
        .unwrap();
        let k2 = state_failure_probability(
            CompletionModel::KOutOfN { k: 2 },
            DependencyModel::Independent,
            &rs,
        )
        .unwrap();
        assert!((k3.value() - and.value()).abs() < EPS);
        assert!((k1.value() - or.value()).abs() < EPS);
        assert!(k1.value() <= k2.value() && k2.value() <= k3.value());
    }

    #[test]
    fn k_out_of_n_shared_bounds() {
        let rs = [req(0.1, 0.1), req(0.2, 0.1), req(0.3, 0.2)];
        let k2_shared = state_failure_probability(
            CompletionModel::KOutOfN { k: 2 },
            DependencyModel::Shared,
            &rs,
        )
        .unwrap();
        let k2_indep = state_failure_probability(
            CompletionModel::KOutOfN { k: 2 },
            DependencyModel::Independent,
            &rs,
        )
        .unwrap();
        // Sharing can only hurt (or match) a quorum below n.
        assert!(k2_shared.value() >= k2_indep.value() - EPS);
    }

    #[test]
    fn invalid_k_rejected() {
        let rs = [req(0.1, 0.1)];
        assert!(state_failure_probability(
            CompletionModel::KOutOfN { k: 0 },
            DependencyModel::Independent,
            &rs,
        )
        .is_err());
        assert!(state_failure_probability(
            CompletionModel::KOutOfN { k: 2 },
            DependencyModel::Independent,
            &rs,
        )
        .is_err());
    }

    #[test]
    fn certain_external_failure_fails_shared_state() {
        let rs = [req(0.0, 1.0), req(0.0, 0.0)];
        let f =
            state_failure_probability(CompletionModel::Or, DependencyModel::Shared, &rs).unwrap();
        assert!(f.is_one());
    }
}
