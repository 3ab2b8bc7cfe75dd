//! The benchmark's own correctness checks.
//!
//! Each check compares the program's output with a computation made
//! apart from the program (finite differences, a Cardano root, a
//! re-derived grid score, an in-process reference trajectory) or with a
//! property the method must have. Every check returns `Err` with a
//! human-readable reason instead of panicking, so a run reports
//! `"correct": false` and names what broke.

/// Every value is finite.
pub fn all_finite(what: &str, xs: &[f32]) -> Result<(), String> {
    match xs.iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("{what}[{i}] is {}", xs[i])),
    }
}

/// Central finite differences of `loss` at `coords` agree with the
/// analytic gradient `grad`.
///
/// `loss` is evaluated in f32 by the program, so the tolerance combines a
/// relative part with an absolute floor sized for the f32 round-off of
/// `(L(x+h) - L(x-h)) / 2h`. A ReLU network is only piecewise smooth:
/// callers probe coordinates whose gradient is large against that
/// round-off and the kinks a step of `h` may cross.
pub fn finite_differences(
    mut loss: impl FnMut(&[f32]) -> f32,
    params: &[f32],
    grad: &[f32],
    coords: &[usize],
    h: f32,
) -> Result<(), String> {
    let mut x = params.to_vec();
    for &i in coords {
        let orig = x[i];
        x[i] = orig + h;
        let up = f64::from(loss(&x));
        x[i] = orig - h;
        let down = f64::from(loss(&x));
        x[i] = orig;
        // The step actually taken in f32, not the nominal `h`.
        let width = f64::from(orig + h) - f64::from(orig - h);
        let fd = (up - down) / width;
        let g = f64::from(grad[i]);
        if (fd - g).abs() > 1e-3 + 0.2 * fd.abs().max(g.abs()) {
            return Err(format!(
                "gradient coordinate {i}: analytic {g:.6e}, central difference {fd:.6e}"
            ));
        }
    }
    Ok(())
}

/// The central difference of `loss` along the gradient's own direction
/// equals the gradient norm within 3%: a check on every coordinate at
/// once, where coordinate probes only sample.
pub fn directional_derivative(
    mut loss: impl FnMut(&[f32]) -> f32,
    params: &[f32],
    grad: &[f32],
    h: f32,
) -> Result<(), String> {
    let norm = grad
        .iter()
        .map(|g| f64::from(*g).powi(2))
        .sum::<f64>()
        .sqrt();
    if !(norm > 0.0 && norm.is_finite()) {
        return Err(format!("gradient norm is {norm}"));
    }
    let step = |sign: f32| -> Vec<f32> {
        params
            .iter()
            .zip(grad)
            .map(|(p, g)| p + sign * h * (f64::from(*g) / norm) as f32)
            .collect()
    };
    let fd = (f64::from(loss(&step(1.0))) - f64::from(loss(&step(-1.0)))) / (2.0 * f64::from(h));
    if (fd - norm).abs() > 0.03 * norm {
        return Err(format!(
            "derivative along the gradient: central difference {fd:.6e}, gradient norm {norm:.6e}"
        ));
    }
    Ok(())
}

/// The paper's `SingleStep` (Eq. 15) solved here in closed form: with
/// `p = D² h_min² / (2C)`, `x = √μ` solves `p x = (1 - x)³`, i.e.
/// `y³ + p y + p = 0` for `y = x - 1`, whose single real root is given by
/// Cardano's formula. Returns `(μ, α)` after the robust-region floor
/// `μ ≥ ((√κ - 1)/(√κ + 1))²`, `κ = h_max / h_min`.
pub fn single_step(c: f64, d: f64, h_min: f64, h_max: f64) -> (f64, f64) {
    let p = d * d * h_min * h_min / (2.0 * c);
    // y³ + p y + q = 0 with q = p: Cardano, discriminant (q/2)² + (p/3)³ > 0.
    let half_q = p / 2.0;
    let root = (half_q * half_q + (p / 3.0).powi(3)).sqrt();
    // u³ = -q/2 + root is a difference of nearly equal terms for large p;
    // use the conjugate form u³ = (p/3)³ / (q/2 + root) instead.
    let u = ((p / 3.0).powi(3) / (half_q + root)).cbrt();
    let v = -(half_q + root).cbrt();
    let x = (u + v + 1.0).clamp(0.0, 1.0);
    let dr = (h_max / h_min).sqrt();
    let floor = ((dr - 1.0) / (dr + 1.0)).powi(2);
    let mu = (x * x).max(floor);
    let lr = (1.0 - mu.sqrt()).powi(2) / h_min;
    (mu, lr)
}

/// The tuner's `(μ, α)` for measurements `(h_min, h_max, C, D)` agrees
/// with the closed form above, and μ lies in the robust region.
pub fn single_step_agrees(
    (h_min, h_max, c, d): (f64, f64, f64, f64),
    program_mu: f64,
    program_lr: f64,
) -> Result<(), String> {
    let (mu, lr) = single_step(c, d, h_min, h_max);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-15;
    if !close(mu, program_mu) || !close(lr, program_lr) {
        return Err(format!(
            "SingleStep(h_min={h_min:e}, h_max={h_max:e}, C={c:e}, D={d:e}): \
             closed form (mu {mu:.12e}, lr {lr:.12e}) vs tuner (mu {program_mu:.12e}, lr {program_lr:.12e})"
        ));
    }
    let kappa = h_max / h_min;
    let floor = (kappa.sqrt() - 1.0) / (kappa.sqrt() + 1.0);
    if !(0.0..1.0).contains(&program_mu) || program_mu.sqrt() < floor * (1.0 - 1e-12) {
        return Err(format!(
            "mu {program_mu} outside the robust region [{:.6e}, 1) for kappa {kappa:.6e}",
            floor * floor
        ));
    }
    Ok(())
}

/// Trailing uniform-window average (Section 5.1), written out here so
/// the grid score is re-derived without the program's smoother.
pub fn window_average(xs: &[f32], window: usize) -> Vec<f64> {
    let w = window.max(1);
    let mut acc = 0.0f64;
    let mut out = Vec::with_capacity(xs.len());
    for i in 0..xs.len() {
        acc += f64::from(xs[i]);
        if i >= w {
            acc -= f64::from(xs[i - w]);
        }
        out.push(acc / (i + 1).min(w) as f64);
    }
    out
}

/// The smoothed loss first reaches `target` at some step (returned),
/// and its last value lies below its first: the curve descends.
pub fn descends_to(losses: &[f32], window: usize, target: f64) -> Result<usize, String> {
    let smooth = window_average(losses, window);
    let (first, last) = match (smooth.get(window.saturating_sub(1)), smooth.last()) {
        (Some(&f), Some(&l)) => (f, l),
        _ => return Err(format!("loss curve too short ({} steps)", losses.len())),
    };
    if last >= first {
        return Err(format!(
            "smoothed loss does not descend: {first:.5} at step {} -> {last:.5} at the end",
            window - 1
        ));
    }
    smooth.iter().position(|&s| s <= target).ok_or_else(|| {
        let best = smooth.iter().copied().fold(f64::INFINITY, f64::min);
        format!("smoothed loss never reaches the target {target}; lowest {best:.5}")
    })
}

/// Per grid value, the lowest windowed average of the seed-averaged
/// loss curves. `curves` is in canonical cell order (value-major, seeds
/// inner). The seed average is taken in f32, in seed order, exactly as
/// the scoring the method specifies, so the score comes out bit-exact.
pub fn grid_scores(
    values: &[f32],
    seeds: usize,
    window: usize,
    curves: &[Vec<f32>],
) -> Vec<(f32, f64)> {
    values
        .iter()
        .enumerate()
        .map(|(vi, &value)| {
            let cells = &curves[vi * seeds..(vi + 1) * seeds];
            let len = cells[0].len();
            let mut avg = vec![0.0f32; len];
            for c in cells {
                for (a, &l) in avg.iter_mut().zip(c) {
                    *a += l;
                }
            }
            for a in &mut avg {
                *a /= seeds as f32;
            }
            let lowest = window_average(&avg, window)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            (value, lowest)
        })
        .collect()
}

/// The reported per-value scores equal the re-derived ones bit for bit,
/// and the reported best value is the re-derived argmin (first wins).
pub fn grid_outcome_agrees(
    reported: &[(f32, f64)],
    reported_best: f32,
    derived: &[(f32, f64)],
) -> Result<(), String> {
    if reported.len() != derived.len() {
        return Err(format!(
            "{} scores reported, {} grid values",
            reported.len(),
            derived.len()
        ));
    }
    for (&(rv, rs), &(dv, ds)) in reported.iter().zip(derived) {
        if rv.to_bits() != dv.to_bits() || rs.to_bits() != ds.to_bits() {
            return Err(format!(
                "score of value {dv}: reported {rs:e} ({:016x}), re-derived {ds:e} ({:016x})",
                rs.to_bits(),
                ds.to_bits()
            ));
        }
    }
    let mut best = derived[0];
    for &d in &derived[1..] {
        if d.1 < best.1 {
            best = d;
        }
    }
    if best.0.to_bits() != reported_best.to_bits() {
        return Err(format!(
            "reported best value {reported_best}, re-derived {}",
            best.0
        ));
    }
    Ok(())
}

/// Two f32 sequences are bitwise identical.
pub fn bitwise_equal(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}[{i}]: {:08x}, expected {:08x}",
            got[i].to_bits(),
            want[i].to_bits()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quadratic `Σ a_i x_i²` and its exact gradient.
    fn quadratic(x: &[f32]) -> f32 {
        x.iter()
            .enumerate()
            .map(|(i, v)| (i as f32 + 1.0) * v * v)
            .sum()
    }

    #[test]
    fn finite_differences_accept_the_true_gradient_and_reject_a_wrong_one() {
        let x = vec![0.3f32, -0.7, 1.1, 0.05];
        let g: Vec<f32> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * (i as f32 + 1.0) * v)
            .collect();
        finite_differences(quadratic, &x, &g, &[0, 1, 2, 3], 1e-2).unwrap();
        directional_derivative(quadratic, &x, &g, 1e-2).unwrap();
        let mut wrong = g.clone();
        wrong[2] *= 1.3;
        assert!(finite_differences(quadratic, &x, &wrong, &[0, 1, 2, 3], 1e-2).is_err());
        assert!(directional_derivative(quadratic, &x, &wrong, 1e-2).is_err());
    }

    #[test]
    fn closed_form_single_step_matches_the_tuner() {
        for &(h_min, h_max, c, d) in &[
            (0.5, 40.0, 1e-3, 2.0),
            (1e-3, 1e-1, 5.0, 0.01),
            (2.0, 2.5, 1e-6, 3.0),
            (0.1, 1e4, 0.2, 0.5),
        ] {
            let s = yellowfin::cubic::single_step(c, d, h_min, h_max);
            single_step_agrees((h_min, h_max, c, d), s.mu, s.lr).unwrap();
        }
    }

    #[test]
    fn single_step_check_rejects_a_perturbed_h_min() {
        let (h_min, h_max, c, d) = (0.5, 40.0, 1e-3, 2.0);
        let s = yellowfin::cubic::single_step(c, d, h_min, h_max);
        let perturbed = h_min * (1.0 + 1e-6);
        assert!(single_step_agrees((perturbed, h_max, c, d), s.mu, s.lr).is_err());
    }

    #[test]
    fn single_step_check_rejects_momentum_outside_the_robust_region() {
        assert!(single_step_agrees((1.0, 100.0, 1e-3, 1.0), 0.1, 0.0).is_err());
    }

    #[test]
    fn grid_check_rejects_a_score_one_ulp_off() {
        let values = [0.5f32, 1.0, 2.0];
        let curves: Vec<Vec<f32>> = (0..6)
            .map(|c| (0..40).map(|t| 3.0 - 0.01 * (t * (c + 1)) as f32).collect())
            .collect();
        let derived = grid_scores(&values, 2, 5, &curves);
        let best = derived
            .iter()
            .copied()
            .fold(
                (0.0f32, f64::INFINITY),
                |b, d| if d.1 < b.1 { d } else { b },
            )
            .0;
        grid_outcome_agrees(&derived, best, &derived).unwrap();
        let mut off = derived.clone();
        off[1].1 = f64::from_bits(off[1].1.to_bits() + 1);
        assert!(grid_outcome_agrees(&off, best, &derived).is_err());
        assert!(grid_outcome_agrees(&derived, 0.5, &derived).is_err());
    }

    #[test]
    fn grid_scores_match_the_program_scorer() {
        let values = [0.5f32, 1.0];
        let seeds = [1u64, 2];
        let curves: Vec<Vec<f32>> = (0..4)
            .map(|c| {
                (0..30)
                    .map(|t| 1.0 / (1.0 + t as f32 * 0.1 * (c + 1) as f32))
                    .collect()
            })
            .collect();
        let results: Vec<yf_experiments::trainer::RunResult> = curves
            .iter()
            .map(|c| yf_experiments::trainer::RunResult {
                losses: c.clone(),
                ..Default::default()
            })
            .collect();
        let outcome = yf_experiments::grid::score_results(&values, &seeds, 4, &results).unwrap();
        let derived = grid_scores(&values, 2, 4, &curves);
        grid_outcome_agrees(&outcome.scores, outcome.best_value, &derived).unwrap();
    }

    #[test]
    fn descent_check_rejects_a_flat_or_rising_curve() {
        let falling: Vec<f32> = (0..100).map(|t| 2.0 - 0.015 * t as f32).collect();
        assert_eq!(descends_to(&falling, 5, 1.0).unwrap(), 69);
        let rising: Vec<f32> = falling.iter().rev().copied().collect();
        assert!(descends_to(&rising, 5, 1.0).is_err());
        assert!(descends_to(&[1.5; 100], 5, 1.0).is_err());
        assert!(
            descends_to(&falling, 5, 0.1).is_err(),
            "target out of reach"
        );
    }

    #[test]
    fn trajectory_check_rejects_one_flipped_bit() {
        let want: Vec<f32> = (0..64).map(|i| i as f32 * 0.25 - 3.0).collect();
        bitwise_equal("params", &want, &want).unwrap();
        let mut got = want.clone();
        got[17] = f32::from_bits(got[17].to_bits() ^ 1);
        assert!(bitwise_equal("params", &got, &want).is_err());
        assert!(all_finite("params", &want).is_ok());
        got[3] = f32::NAN;
        assert!(all_finite("params", &got).is_err());
    }
}
