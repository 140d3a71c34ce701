//! Damped fixed-point iteration.
//!
//! The memory-system fluid model couples bandwidth demand and memory latency:
//! demand depends on latency (stalled threads issue slower) and latency
//! depends on demand (loaded-latency curve). Each simulation step solves the
//! coupled system by damped fixed-point iteration on a state vector. This
//! module provides the one driver, [`solve_fixed_point_batch_into`], with
//! convergence/oscillation control: it solves any number of independent
//! state vectors at once, and a single solve is a one-lane batch.

/// Configuration for [`solve_fixed_point_batch_into`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointConfig {
    /// Maximum number of iterations before giving up.
    pub max_iters: usize,
    /// Relative convergence tolerance on the infinity norm.
    pub tolerance: f64,
    /// Damping factor in `(0, 1]`: `x' = (1-d)*x + d*f(x)`.
    pub damping: f64,
}

/// One lane's result of [`solve_fixed_point_batch_into`]; the state lives in
/// the caller's buffer, so only the scalars are returned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FixedPointStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// Final relative residual (infinity norm).
    pub residual: f64,
}

/// Solves many independent fixed-point problems in one batched drive.
///
/// The state vectors of `n` lanes live back to back in one flat buffer:
/// lane `l` occupies `x[start..lane_ends[l]]` where `start` is 0 for the
/// first lane and `lane_ends[l - 1]` otherwise (so `lane_ends` is
/// non-decreasing and its last entry equals `x.len()`). Each outer
/// iteration evaluates every still-active lane once via
/// `f(lane, x_lane, fx)` and applies the damped update; a lane whose
/// relative infinity-norm step falls below the tolerance converges, records
/// its stats and drops out of the remaining iterations (the per-lane active
/// mask). The drive ends when every lane has converged or the iteration
/// budget is exhausted.
///
/// Lanes never interact: a lane's state, iteration count and residual are
/// bit-for-bit what a plain damped loop over that lane alone produces, no
/// matter which other lanes share the drive. Empty lanes converge after one
/// evaluation with a zero residual.
///
/// On entry `active[l]` selects the lanes to solve (callers normally set
/// all true); on exit it is false for every converged lane. `stats[l]` is
/// overwritten for every initially-active lane; inactive lanes keep their
/// previous stats. Returns the number of initially-active lanes that
/// converged.
///
/// # Panics
///
/// Panics if the lane layout is inconsistent (`lane_ends` decreasing, last
/// entry not `x.len()`, or `active`/`stats` lengths differing from the lane
/// count), if `f` leaves `fx` with a different length than the lane, or if
/// the config's damping is outside `(0, 1]`.
pub fn solve_fixed_point_batch_into<F>(
    x: &mut [f64],
    lane_ends: &[usize],
    active: &mut [bool],
    stats: &mut [FixedPointStats],
    fx: &mut Vec<f64>,
    mut f: F,
    config: FixedPointConfig,
) -> usize
where
    F: FnMut(usize, &[f64], &mut Vec<f64>),
{
    assert!(
        config.damping > 0.0 && config.damping <= 1.0,
        "damping must be in (0, 1]"
    );
    let n_lanes = lane_ends.len();
    assert_eq!(active.len(), n_lanes, "active mask / lane count mismatch");
    assert_eq!(stats.len(), n_lanes, "stats / lane count mismatch");
    let mut prev_end = 0usize;
    for &end in lane_ends {
        assert!(end >= prev_end, "lane_ends must be non-decreasing");
        prev_end = end;
    }
    assert_eq!(
        prev_end,
        x.len(),
        "lane_ends must cover the whole state buffer"
    );

    for (l, s) in stats.iter_mut().enumerate() {
        if active[l] {
            *s = FixedPointStats {
                iterations: 0,
                converged: false,
                residual: f64::INFINITY,
            };
        }
    }

    let mut remaining = active.iter().filter(|&&a| a).count();
    let mut converged_lanes = 0usize;
    for iter in 0..config.max_iters {
        if remaining == 0 {
            break;
        }
        let mut lane_start = 0usize;
        for (l, &lane_end) in lane_ends.iter().enumerate() {
            let start = lane_start;
            lane_start = lane_end;
            if !active[l] {
                continue;
            }
            let lane = &mut x[start..lane_end];
            fx.clear();
            f(l, lane, fx);
            assert_eq!(fx.len(), lane.len(), "fixed-point map changed dimension");
            debug_assert!(
                fx.iter().all(|v| v.is_finite()),
                "fixed-point map produced a non-finite rate in lane {l}"
            );
            let mut max_rel = 0.0f64;
            for (xi, &fxi) in lane.iter_mut().zip(fx.iter()) {
                let next = (1.0 - config.damping) * *xi + config.damping * fxi;
                let scale = xi.abs().max(1e-9);
                max_rel = max_rel.max((next - *xi).abs() / scale);
                *xi = next;
            }
            stats[l].iterations = iter + 1;
            stats[l].residual = max_rel;
            if max_rel < config.tolerance {
                stats[l].converged = true;
                active[l] = false;
                remaining -= 1;
                converged_lanes += 1;
            }
        }
    }
    converged_lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_iters: usize, tolerance: f64, damping: f64) -> FixedPointConfig {
        FixedPointConfig {
            max_iters,
            tolerance,
            damping,
        }
    }

    /// The reference the driver is checked against: a plain damped loop
    /// over one state vector.
    fn reference_solve<F>(x: &mut [f64], mut f: F, cfg: FixedPointConfig) -> FixedPointStats
    where
        F: FnMut(&[f64], &mut Vec<f64>),
    {
        let mut fx = Vec::new();
        let mut stats = FixedPointStats {
            iterations: 0,
            converged: false,
            residual: f64::INFINITY,
        };
        for iter in 0..cfg.max_iters {
            fx.clear();
            f(x, &mut fx);
            let mut max_rel = 0.0f64;
            for (xi, &fxi) in x.iter_mut().zip(&fx) {
                let next = (1.0 - cfg.damping) * *xi + cfg.damping * fxi;
                max_rel = max_rel.max((next - *xi).abs() / xi.abs().max(1e-9));
                *xi = next;
            }
            stats = FixedPointStats {
                iterations: iter + 1,
                converged: max_rel < cfg.tolerance,
                residual: max_rel,
            };
            if stats.converged {
                break;
            }
        }
        stats
    }

    /// Solves one state vector as a one-lane batch.
    fn solve_one<F>(
        initial: Vec<f64>,
        mut f: F,
        cfg: FixedPointConfig,
    ) -> (Vec<f64>, FixedPointStats)
    where
        F: FnMut(&[f64]) -> Vec<f64>,
    {
        let mut x = initial;
        let lane_ends = [x.len()];
        let mut stats = [FixedPointStats::default()];
        let mut fx = Vec::new();
        solve_fixed_point_batch_into(
            &mut x,
            &lane_ends,
            &mut [true],
            &mut stats,
            &mut fx,
            |_, x, out| out.extend_from_slice(&f(x)),
            cfg,
        );
        (x, stats[0])
    }

    #[test]
    fn converges_on_contraction() {
        // x = 0.5x + 1 -> x = 2
        let (x, stats) = solve_one(
            vec![0.0],
            |x| vec![0.5 * x[0] + 1.0],
            config(200, 1e-8, 1.0),
        );
        assert!(stats.converged);
        assert!((x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn damping_tames_oscillation() {
        // x = 2 - x oscillates undamped (period 2) but converges to 1 damped.
        let (x, stats) = solve_one(vec![0.0], |x| vec![2.0 - x[0]], config(200, 1e-8, 0.5));
        assert!(stats.converged);
        assert!((x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multidimensional_solve() {
        // x = 0.3y + 0.7, y = 0.3x + 0.7 -> x = y = 1
        let (x, stats) = solve_one(
            vec![0.0, 5.0],
            |v| vec![0.3 * v[1] + 0.7, 0.3 * v[0] + 0.7],
            config(60, 1e-4, 0.5),
        );
        assert!(stats.converged);
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!((x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn reports_non_convergence() {
        // x = 2x diverges; solver must report rather than loop forever.
        let (_, stats) = solve_one(vec![1.0], |x| vec![2.0 * x[0]], config(10, 1e-8, 1.0));
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 10);
        assert!(stats.residual > 0.0);
    }

    #[test]
    fn reuses_the_scratch_buffer() {
        let mut x = vec![0.0];
        let mut stats = [FixedPointStats::default()];
        let mut fx = Vec::with_capacity(1);
        let before = fx.capacity();
        solve_fixed_point_batch_into(
            &mut x,
            &[1],
            &mut [true],
            &mut stats,
            &mut fx,
            |_, x, out| out.push(0.5 * x[0] + 1.0),
            config(200, 1e-10, 1.0),
        );
        assert!(stats[0].converged);
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert_eq!(fx.capacity(), before, "scratch buffer must not regrow");
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        solve_one(vec![0.0], |x| x.to_vec(), config(1, 1e-4, 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn rejects_dimension_change() {
        solve_one(vec![0.0], |_| vec![0.0, 1.0], config(60, 1e-4, 0.5));
    }

    /// The lane whose map expands, so it exhausts its budget unconverged.
    const SICK_LANE: usize = 6;

    /// Deterministic per-lane affine maps for the batch tests: lane `l`
    /// solves `x_i = a_l * x_i + b_l + i` element-wise. Every lane but
    /// [`SICK_LANE`] is a contraction.
    fn lane_map(l: usize, x: &[f64], out: &mut Vec<f64>) {
        let a = if l == SICK_LANE {
            1.5
        } else {
            0.2 + 0.1 * (l % 5) as f64
        };
        let b = 1.0 + l as f64;
        for (i, xi) in x.iter().enumerate() {
            out.push(a * xi + b + i as f64);
        }
    }

    #[test]
    fn batch_lanes_match_scalar_solves_bitwise() {
        // Mixed lane widths, including an empty lane in the middle and a
        // lane that never converges.
        let widths = [3usize, 1, 0, 5, 2, 4, 2];
        let cfg = config(120, 1e-7, 0.6);
        let mut flat = Vec::new();
        let mut lane_ends = Vec::new();
        for (l, &w) in widths.iter().enumerate() {
            for i in 0..w {
                flat.push(0.25 * (l as f64) - 0.5 * (i as f64));
            }
            lane_ends.push(flat.len());
        }
        let initial = flat.clone();
        let mut active = vec![true; widths.len()];
        let mut stats = vec![FixedPointStats::default(); widths.len()];
        let mut fx = Vec::new();
        let converged = solve_fixed_point_batch_into(
            &mut flat,
            &lane_ends,
            &mut active,
            &mut stats,
            &mut fx,
            lane_map,
            cfg,
        );
        assert_eq!(converged, widths.len() - 1);
        for (l, &a) in active.iter().enumerate() {
            assert_eq!(a, l == SICK_LANE, "lane {l} mask");
        }
        assert!(!stats[SICK_LANE].converged);
        assert_eq!(stats[SICK_LANE].iterations, cfg.max_iters);

        // Each lane re-solved alone by the reference loop must agree to the
        // last bit.
        let mut start = 0usize;
        for (l, &end) in lane_ends.iter().enumerate() {
            let mut lane: Vec<f64> = initial[start..end].to_vec();
            let alone = reference_solve(&mut lane, |x, out| lane_map(l, x, out), cfg);
            assert_eq!(&flat[start..end], &lane[..], "lane {l} state diverged");
            assert_eq!(stats[l].iterations, alone.iterations, "lane {l}");
            assert_eq!(stats[l].converged, alone.converged, "lane {l}");
            assert_eq!(
                stats[l].residual.to_bits(),
                alone.residual.to_bits(),
                "lane {l}"
            );
            start = end;
        }
    }

    #[test]
    fn batch_empty_lane_converges_in_one_iteration() {
        let mut x: [f64; 0] = [];
        let mut active = [true];
        let mut stats = [FixedPointStats {
            iterations: 0,
            converged: false,
            residual: 1.0,
        }];
        let mut fx = Vec::new();
        let converged = solve_fixed_point_batch_into(
            &mut x,
            &[0],
            &mut active,
            &mut stats,
            &mut fx,
            |_, _, _| {},
            config(60, 1e-4, 0.5),
        );
        assert_eq!(converged, 1);
        assert_eq!(stats[0].iterations, 1);
        assert!(stats[0].converged);
        assert_eq!(stats[0].residual, 0.0);
    }

    #[test]
    fn batch_converged_lanes_stop_being_evaluated() {
        // Lane 0 converges instantly (identity start at the fixed point);
        // lane 1 diverges and burns the whole budget. Count evaluations.
        let mut evals = [0usize; 2];
        let mut x = vec![2.0, 1.0];
        let mut active = [true, true];
        let mut stats = [FixedPointStats::default(); 2];
        let mut fx = Vec::new();
        solve_fixed_point_batch_into(
            &mut x,
            &[1, 2],
            &mut active,
            &mut stats,
            &mut fx,
            |l, x, out| {
                evals[l] += 1;
                out.push(if l == 0 { x[0] } else { 2.0 * x[0] });
            },
            config(10, 1e-8, 1.0),
        );
        assert_eq!(evals[0], 1, "converged lane must drop out of the mask");
        assert_eq!(evals[1], 10);
        assert!(stats[0].converged && !stats[1].converged);
        assert_eq!(stats[1].iterations, 10);
    }

    #[test]
    fn batch_respects_initially_inactive_lanes() {
        let mut x = vec![0.0, 7.0];
        let mut active = [true, false];
        let sentinel = FixedPointStats {
            iterations: 99,
            converged: false,
            residual: 42.0,
        };
        let mut stats = [sentinel; 2];
        let mut fx = Vec::new();
        let converged = solve_fixed_point_batch_into(
            &mut x,
            &[1, 2],
            &mut active,
            &mut stats,
            &mut fx,
            |_, x, out| out.push(0.5 * x[0] + 1.0),
            config(200, 1e-10, 1.0),
        );
        assert_eq!(converged, 1);
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert_eq!(x[1], 7.0, "inactive lane state must be untouched");
        assert_eq!(stats[1], sentinel, "inactive lane stats must be kept");
    }

    #[test]
    #[should_panic(expected = "lane_ends must cover")]
    fn batch_rejects_short_lane_layout() {
        let mut x = vec![0.0, 0.0];
        let mut stats = [FixedPointStats::default()];
        let mut fx = Vec::new();
        solve_fixed_point_batch_into(
            &mut x,
            &[1],
            &mut [true],
            &mut stats,
            &mut fx,
            |_, _, out| out.push(0.0),
            config(60, 1e-4, 0.5),
        );
    }

    #[test]
    #[should_panic(expected = "active mask")]
    fn batch_rejects_mask_length_mismatch() {
        let mut x = vec![0.0];
        let mut stats = [FixedPointStats::default()];
        let mut fx = Vec::new();
        solve_fixed_point_batch_into(
            &mut x,
            &[1],
            &mut [true, true],
            &mut stats,
            &mut fx,
            |_, _, out| out.push(0.0),
            config(60, 1e-4, 0.5),
        );
    }
}
