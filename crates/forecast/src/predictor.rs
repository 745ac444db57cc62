//! Scalar time-series predictors.

use std::collections::VecDeque;

/// A one-step-ahead scalar forecaster fed one observation per slot.
pub trait Predictor: std::fmt::Debug {
    /// Feeds the realized value of the current slot.
    fn observe(&mut self, value: f64);

    /// Forecast for the next slot. Before any observation arrives,
    /// implementations return 0.
    fn predict(&self) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's Eq. 27 ARMA predictor:
/// `ρ̂(t) = a_1·ρ(t−1) + … + a_p·ρ(t−p)` with `Σ a = 1` and
/// `a_{p₁} ≥ a_{p₂}` for `p₁ < p₂` (recent slots weigh more).
#[derive(Debug, Clone, PartialEq)]
pub struct PaperArma {
    /// `weights[0]` multiplies the most recent observation.
    weights: Vec<f64>,
    /// Most recent observation at the front.
    history: VecDeque<f64>,
}

impl PaperArma {
    /// Builds the predictor with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is outside `[0, 1]`, the
    /// weights do not sum to 1 (±1e-9), or they increase with lag
    /// (violating the paper's `a_{p₁} ≥ a_{p₂}` condition).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|w| (0.0..=1.0).contains(w)),
            "weights must be in [0, 1]"
        );
        let sum: f64 = weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights must sum to 1");
        assert!(
            weights.windows(2).all(|w| w[0] >= w[1] - 1e-12),
            "weights must not increase with lag"
        );
        PaperArma {
            history: VecDeque::with_capacity(weights.len()),
            weights,
        }
    }

    /// Linearly decreasing normalized weights of order `p`:
    /// `a_i ∝ p − i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn with_linear_weights(p: usize) -> Self {
        assert!(p > 0, "order must be positive");
        let total: f64 = (1..=p).map(|i| i as f64).sum();
        let weights = (0..p).map(|i| (p - i) as f64 / total).collect();
        Self::new(weights)
    }

    /// The model order `p`.
    pub fn order(&self) -> usize {
        self.weights.len()
    }
}

impl Predictor for PaperArma {
    fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "observations must be finite");
        if self.history.len() == self.weights.len() {
            self.history.pop_back();
        }
        self.history.push_front(value);
    }

    fn predict(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        // With a partial history, renormalize over the available lags so
        // the forecast is still a convex combination.
        let used: f64 = self.weights[..self.history.len()].iter().sum();
        self.history
            .iter()
            .zip(&self.weights)
            .map(|(v, w)| v * w)
            .sum::<f64>()
            / used
    }

    fn name(&self) -> &'static str {
        "arma"
    }
}

/// Exponentially weighted moving average: `s ← α·x + (1−α)·s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates the filter.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, state: None }
    }
}

impl Predictor for Ewma {
    fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "observations must be finite");
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }

    fn predict(&self) -> f64 {
        self.state.unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Predicts the last observed value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NaiveLast {
    last: Option<f64>,
}

impl NaiveLast {
    /// A fresh predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for NaiveLast {
    fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "observations must be finite");
        self.last = Some(value);
    }

    fn predict(&self) -> f64 {
        self.last.unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

/// AR(p) with coefficients re-fitted by ordinary least squares every
/// `refit_every` observations (plus an intercept).
#[derive(Debug, Clone, PartialEq)]
pub struct FittedAr {
    p: usize,
    refit_every: usize,
    history: Vec<f64>,
    /// `[intercept, a_1 … a_p]`, most recent lag first.
    coeffs: Option<Vec<f64>>,
    since_fit: usize,
}

impl FittedAr {
    /// Creates an AR(p) predictor that refits every `refit_every`
    /// observations.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `refit_every == 0`.
    pub fn new(p: usize, refit_every: usize) -> Self {
        assert!(p > 0, "order must be positive");
        assert!(refit_every > 0, "refit interval must be positive");
        FittedAr {
            p,
            refit_every,
            history: Vec::new(),
            coeffs: None,
            since_fit: 0,
        }
    }

    fn refit(&mut self) {
        let n = self.history.len();
        if n < self.p + 2 {
            return;
        }
        // Design matrix rows: [1, x[t-1], …, x[t-p]] → target x[t].
        let rows = n - self.p;
        let cols = self.p + 1;
        let mut xtx = vec![vec![0.0; cols]; cols];
        let mut xty = vec![0.0; cols];
        for t in self.p..n {
            let mut row = Vec::with_capacity(cols);
            row.push(1.0);
            for lag in 1..=self.p {
                row.push(self.history[t - lag]);
            }
            let target = self.history[t];
            for a in 0..cols {
                xty[a] += row[a] * target;
                for b in 0..cols {
                    xtx[a][b] += row[a] * row[b];
                }
            }
        }
        // Ridge jitter keeps the normal equations solvable on constant
        // series.
        for (a, row) in xtx.iter_mut().enumerate() {
            row[a] += 1e-8 * rows as f64;
        }
        if let Some(beta) = solve_linear(xtx, xty) {
            self.coeffs = Some(beta);
        }
    }
}

impl Predictor for FittedAr {
    fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "observations must be finite");
        self.history.push(value);
        self.since_fit += 1;
        if self.since_fit >= self.refit_every {
            self.refit();
            self.since_fit = 0;
        }
    }

    fn predict(&self) -> f64 {
        match (&self.coeffs, self.history.len()) {
            (Some(beta), n) if n >= self.p => {
                // `beta[lag]` weighs `history[n - lag]`, newest first.
                let lags = self.history[n - self.p..].iter().rev();
                let mut v = beta[0];
                for (b, h) in beta[1..=self.p].iter().zip(lags) {
                    v += b * h;
                }
                v
            }
            // Fallbacks while warming up: last value, then 0.
            (_, n) if n > 0 => self.history[n - 1],
            _ => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "fitted-ar"
    }
}

/// Gaussian elimination with partial pivoting; `None` if singular.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            // lexlint: allow(LX06): exact-zero sparsity skip in elimination
            if f != 0.0 {
                let (above, below) = a.split_at_mut(row);
                for (t, p) in below[0][col..n].iter_mut().zip(&above[col][col..n]) {
                    *t -= f * p;
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut v = b[col];
        for k in (col + 1)..n {
            v -= a[col][k] * x[k];
        }
        x[col] = v / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arma_linear_weights_are_valid() {
        let arma = PaperArma::with_linear_weights(4);
        assert_eq!(arma.order(), 4);
        // a = (4,3,2,1)/10.
        let expect = [0.4, 0.3, 0.2, 0.1];
        let got = PaperArma::with_linear_weights(4);
        let mut probe = got.clone();
        probe.observe(1.0);
        let _ = probe.predict();
        assert_eq!(got.weights, expect.to_vec());
    }

    #[test]
    fn paper_arma_predicts_convex_combination() {
        let mut arma = PaperArma::new(vec![0.5, 0.3, 0.2]);
        arma.observe(10.0);
        arma.observe(20.0);
        arma.observe(30.0);
        // history front→back: 30, 20, 10 → 0.5*30 + 0.3*20 + 0.2*10 = 23.
        assert!((arma.predict() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn paper_arma_constant_series_is_fixed_point() {
        let mut arma = PaperArma::with_linear_weights(5);
        for _ in 0..20 {
            arma.observe(7.0);
        }
        assert!((arma.predict() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn paper_arma_partial_history_renormalizes() {
        let mut arma = PaperArma::new(vec![0.5, 0.3, 0.2]);
        arma.observe(10.0);
        // Only the first weight is usable → prediction = 10.
        assert!((arma.predict() - 10.0).abs() < 1e-12);
        arma.observe(20.0);
        // (0.5*20 + 0.3*10) / 0.8 = 16.25.
        assert!((arma.predict() - 16.25).abs() < 1e-12);
    }

    #[test]
    fn paper_arma_empty_predicts_zero() {
        assert_eq!(PaperArma::with_linear_weights(3).predict(), 0.0);
    }

    #[test]
    #[should_panic(expected = "weights must sum to 1")]
    fn paper_arma_rejects_unnormalized() {
        let _ = PaperArma::new(vec![0.5, 0.2]);
    }

    #[test]
    #[should_panic(expected = "must not increase with lag")]
    fn paper_arma_rejects_increasing_weights() {
        let _ = PaperArma::new(vec![0.2, 0.8]);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.predict(), 0.0);
        for _ in 0..100 {
            e.observe(5.0);
        }
        assert!((e.predict() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_observation_initializes_state() {
        let mut e = Ewma::new(0.1);
        e.observe(42.0);
        assert_eq!(e.predict(), 42.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn naive_tracks_last() {
        let mut n = NaiveLast::new();
        assert_eq!(n.predict(), 0.0);
        n.observe(3.0);
        n.observe(9.0);
        assert_eq!(n.predict(), 9.0);
        assert_eq!(n.name(), "naive");
    }

    #[test]
    fn fitted_ar_learns_linear_recurrence() {
        // x[t] = 0.8 x[t-1] + 2 exactly.
        let mut ar = FittedAr::new(1, 5);
        let mut x = 1.0;
        for _ in 0..60 {
            ar.observe(x);
            x = 0.8 * x + 2.0;
        }
        let pred = ar.predict();
        assert!(
            (pred - x).abs() < 0.05,
            "predicted {pred}, expected about {x}"
        );
    }

    #[test]
    fn fitted_ar_warmup_falls_back_to_last_value() {
        let mut ar = FittedAr::new(3, 100);
        ar.observe(4.0);
        assert_eq!(ar.predict(), 4.0);
    }

    #[test]
    fn fitted_ar_constant_series_stays_constant() {
        let mut ar = FittedAr::new(2, 4);
        for _ in 0..30 {
            ar.observe(6.0);
        }
        assert!((ar.predict() - 6.0).abs() < 1e-3);
    }

    #[test]
    fn solve_linear_small_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let sol = solve_linear(a, vec![5.0, 10.0]).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-12);
        assert!((sol[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(solve_linear(a, vec![1.0, 2.0]), None);
    }

    #[test]
    fn predictor_names() {
        assert_eq!(PaperArma::with_linear_weights(1).name(), "arma");
        assert_eq!(Ewma::new(0.5).name(), "ewma");
        assert_eq!(FittedAr::new(1, 1).name(), "fitted-ar");
    }
}
