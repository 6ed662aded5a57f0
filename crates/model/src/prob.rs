use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ModelError, Result};

/// A validated probability in `[0, 1]`.
///
/// Every probability the engine computes flows through this newtype; its
/// combinators implement the complement-product algebra used throughout the
/// paper's equations (4)–(13) and clamp away the ±1e-15 float dust that
/// long products accumulate.
///
/// # Examples
///
/// ```
/// use archrel_model::Probability;
///
/// # fn main() -> Result<(), archrel_model::ModelError> {
/// let p = Probability::new(0.2)?;
/// let q = Probability::new(0.5)?;
/// // Probability that at least one of two independent events occurs:
/// assert!((p.either(q).value() - 0.6).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Probability(f64);

/// Slack accepted when validating raw floats: values within this distance
/// outside `[0, 1]` are clamped rather than rejected, absorbing accumulated
/// rounding from long complement products.
const CLAMP_SLACK: f64 = 1e-9;

impl Probability {
    /// The impossible event.
    pub const ZERO: Probability = Probability(0.0);
    /// The certain event.
    pub const ONE: Probability = Probability(1.0);

    /// Validates a raw float as a probability.
    ///
    /// Values within `1e-9` outside `[0, 1]` are clamped; anything further
    /// out (or non-finite) is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`].
    pub fn new(value: f64) -> Result<Probability> {
        if !value.is_finite() || !(-CLAMP_SLACK..=1.0 + CLAMP_SLACK).contains(&value) {
            return Err(ModelError::InvalidProbability {
                value,
                context: "Probability::new".to_string(),
            });
        }
        Ok(Probability(value.clamp(0.0, 1.0)))
    }

    /// The underlying float.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Complement `1 - p`.
    #[must_use]
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }

    /// Probability that two independent events both occur.
    #[must_use]
    pub fn both(self, other: Probability) -> Probability {
        Probability(self.0 * other.0)
    }

    /// Probability that at least one of two independent events occurs:
    /// `1 - (1-p)(1-q)`.
    #[must_use]
    pub fn either(self, other: Probability) -> Probability {
        Probability(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }

    /// Probability that **all** independent events in `iter` occur.
    ///
    /// Empty input yields [`Probability::ONE`] (vacuous conjunction).
    pub fn all(iter: impl IntoIterator<Item = Probability>) -> Probability {
        Probability(iter.into_iter().fold(1.0, |acc, p| acc * p.0))
    }

    /// Probability that **at least one** independent event in `iter` occurs.
    ///
    /// Empty input yields [`Probability::ZERO`] (vacuous disjunction).
    pub fn any(iter: impl IntoIterator<Item = Probability>) -> Probability {
        Probability(1.0 - iter.into_iter().fold(1.0, |acc, p| acc * (1.0 - p.0)))
    }

    /// Probability that **at least `k`** of the given independent events
    /// occur (the "k out of n" completion model the paper mentions as a
    /// natural extension of AND/OR in §3.2).
    ///
    /// Computed by dynamic programming over the Poisson-binomial
    /// distribution; `O(n·k)` time. Same as [`Probability::at_least_iter`]
    /// over the slice.
    pub fn at_least(k: usize, probs: &[Probability]) -> Probability {
        Probability::at_least_iter(k, probs.iter().copied())
    }

    /// [`Probability::at_least`] over an iterator of event probabilities,
    /// so callers can feed derived probabilities without collecting them.
    ///
    /// The DP runs on stack buffers while `k + 1 <= 32` and allocates one
    /// heap buffer only beyond that.
    pub fn at_least_iter<I>(k: usize, probs: I) -> Probability
    where
        I: IntoIterator<Item = Probability>,
        I::IntoIter: ExactSizeIterator,
    {
        const STACK: usize = 32;
        let probs = probs.into_iter();
        if k == 0 {
            return Probability::ONE;
        }
        if k > probs.len() {
            return Probability::ZERO;
        }
        if k < STACK {
            let mut dp = [0.0_f64; STACK];
            let mut next = [0.0_f64; STACK];
            at_least_dp(probs, &mut dp[..=k], &mut next[..=k])
        } else {
            let mut buf = vec![0.0_f64; 2 * (k + 1)];
            let (dp, next) = buf.split_at_mut(k + 1);
            at_least_dp(probs, dp, next)
        }
    }

    /// Whether the probability is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Whether the probability is exactly one.
    pub fn is_one(self) -> bool {
        self.0 == 1.0
    }
}

/// The Poisson-binomial DP behind [`Probability::at_least_iter`]:
/// `dp[j] = P(j successes so far)`, with the last bucket absorbing "k or
/// more". `dp` and `next` have length `k + 1` and arrive zeroed.
fn at_least_dp<'b>(
    probs: impl Iterator<Item = Probability>,
    mut dp: &'b mut [f64],
    mut next: &'b mut [f64],
) -> Probability {
    let k = dp.len() - 1;
    dp[0] = 1.0;
    for p in probs {
        let p = p.0;
        next.fill(0.0);
        next[k] = dp[k]; // mass at the cap never leaves
        for j in 0..k {
            next[j] += dp[j] * (1.0 - p);
            next[j + 1] += dp[j] * p;
        }
        std::mem::swap(&mut dp, &mut next);
    }
    Probability(dp[k].clamp(0.0, 1.0))
}

impl Default for Probability {
    fn default() -> Self {
        Probability::ZERO
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> f64 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Probability::new(0.5).is_ok());
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(1.2).is_err());
        assert!(Probability::new(-0.2).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert!(Probability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn tiny_overshoot_is_clamped() {
        let q = Probability::new(1.0 + 1e-12).unwrap();
        assert_eq!(q.value(), 1.0);
        let q = Probability::new(-1e-12).unwrap();
        assert_eq!(q.value(), 0.0);
    }

    #[test]
    fn complement() {
        assert!((p(0.3).complement().value() - 0.7).abs() < 1e-15);
        assert_eq!(Probability::ONE.complement(), Probability::ZERO);
    }

    #[test]
    fn both_and_either() {
        assert!((p(0.5).both(p(0.4)).value() - 0.2).abs() < 1e-15);
        assert!((p(0.5).either(p(0.5)).value() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn all_and_any() {
        let ps = [p(0.9), p(0.8), p(0.5)];
        assert!((Probability::all(ps).value() - 0.36).abs() < 1e-15);
        let qs = [p(0.1), p(0.2)];
        assert!((Probability::any(qs).value() - 0.28).abs() < 1e-15);
        assert_eq!(Probability::all([]), Probability::ONE);
        assert_eq!(Probability::any([]), Probability::ZERO);
    }

    #[test]
    fn at_least_reduces_to_any_and_all() {
        let ps = [p(0.3), p(0.5), p(0.9)];
        let any = Probability::any(ps);
        let all = Probability::all(ps);
        assert!((Probability::at_least(1, &ps).value() - any.value()).abs() < 1e-12);
        assert!((Probability::at_least(3, &ps).value() - all.value()).abs() < 1e-12);
        assert_eq!(Probability::at_least(0, &ps), Probability::ONE);
        assert_eq!(Probability::at_least(4, &ps), Probability::ZERO);
    }

    #[test]
    fn at_least_two_of_three_known_value() {
        // Three fair coins: P(>= 2 heads) = 0.5.
        let ps = [p(0.5), p(0.5), p(0.5)];
        assert!((Probability::at_least(2, &ps).value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn at_least_matches_exhaustive_enumeration() {
        let ps = [p(0.2), p(0.7), p(0.4), p(0.9)];
        for k in 0..=4 {
            // Exhaustive: sum over all outcome masks.
            let mut total = 0.0;
            for mask in 0..16u32 {
                let successes = mask.count_ones() as usize;
                if successes < k {
                    continue;
                }
                let mut prob = 1.0;
                for (i, pi) in ps.iter().enumerate() {
                    prob *= if mask & (1 << i) != 0 {
                        pi.value()
                    } else {
                        1.0 - pi.value()
                    };
                }
                total += prob;
            }
            let fast = Probability::at_least(k, &ps).value();
            assert!((fast - total).abs() < 1e-12, "k={k}: {fast} vs {total}");
        }
    }

    #[test]
    fn display_and_conversion() {
        assert_eq!(p(0.25).to_string(), "0.25");
        let raw: f64 = p(0.25).into();
        assert_eq!(raw, 0.25);
    }
}
